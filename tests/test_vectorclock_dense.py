"""Property tests for the dense list-clock kernels.

The epoch detectors keep every clock as a plain list indexed by thread
index; :func:`join_into_list`, :func:`join_into_list_changed` and
:func:`dominates_list` must agree with the component-wise definitions,
missing trailing components reading as 0.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    dominates_list,
    join_into_list,
    join_into_list_changed,
)

values_lists = st.lists(st.integers(0, 9), min_size=0, max_size=6)


class TestListKernels:
    @settings(max_examples=100, deadline=None)
    @given(a=values_lists, b=values_lists)
    def test_join_kernels_match_object_join(self, a, b):
        if len(b) > len(a):
            a, b = b, a  # kernels require len(src) <= len(dst)
        expected = [max(x, y) for x, y in zip(a, b)] + a[len(b):]
        got = a.copy()
        join_into_list(got, b)
        assert got == expected
        got2 = a.copy()
        changed = join_into_list_changed(got2, b)
        assert got2 == expected
        assert changed == (got2 != a)

    @settings(max_examples=100, deadline=None)
    @given(a=values_lists, b=values_lists)
    def test_dominates_list_matches_componentwise_definition(self, a, b):
        expected = all(
            y <= (a[i] if i < len(a) else 0) for i, y in enumerate(b))
        assert dominates_list(a, b) == expected
