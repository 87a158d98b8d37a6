"""Unit and property tests for vector clocks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.vectorclock import VectorClock

clock_dicts = st.dictionaries(st.integers(1, 5), st.integers(1, 100),
                              max_size=5)


class TestVectorClockBasics:
    def test_empty_clock_is_zero_everywhere(self):
        vc = VectorClock()
        assert vc.get(1) == 0
        assert vc.get("anything") == 0
        assert not vc

    def test_set_and_get(self):
        vc = VectorClock()
        vc.set(1, 5)
        assert vc.get(1) == 5
        assert len(vc) == 1

    def test_set_zero_removes_entry(self):
        vc = VectorClock({1: 5})
        vc.set(1, 0)
        assert len(vc) == 0

    def test_increment(self):
        vc = VectorClock()
        assert vc.increment(1) == 1
        assert vc.increment(1) == 2
        assert vc.get(1) == 2

    def test_join_returns_whether_changed(self):
        a = VectorClock({1: 3})
        b = VectorClock({1: 5, 2: 1})
        assert a.join(b) is True
        assert a.get(1) == 5 and a.get(2) == 1
        assert a.join(b) is False  # already dominated

    def test_join_keeps_larger_components(self):
        a = VectorClock({1: 10, 2: 1})
        a.join(VectorClock({1: 3, 2: 7}))
        assert a.get(1) == 10 and a.get(2) == 7

    def test_dominates(self):
        big = VectorClock({1: 5, 2: 3})
        small = VectorClock({1: 5})
        assert big.dominates(small)
        assert not small.dominates(big)
        assert big.dominates(VectorClock())

    def test_copy_is_independent(self):
        a = VectorClock({1: 1})
        b = a.copy()
        b.set(1, 9)
        assert a.get(1) == 1

    def test_equality(self):
        assert VectorClock({1: 2}) == VectorClock({1: 2})
        assert VectorClock({1: 2}) != VectorClock({1: 3})

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(VectorClock())

    def test_iteration_and_as_dict(self):
        vc = VectorClock({1: 2, 3: 4})
        assert dict(vc) == {1: 2, 3: 4}
        assert vc.as_dict() == {1: 2, 3: 4}

    def test_repr_mentions_components(self):
        assert "T1:2" in repr(VectorClock({1: 2}))


class TestVectorClockLattice:
    """Property tests: join is a least upper bound."""

    @given(clock_dicts, clock_dicts)
    def test_join_is_upper_bound(self, da, db):
        a, b = VectorClock(da), VectorClock(db)
        joined = a.copy()
        joined.join(b)
        assert joined.dominates(a)
        assert joined.dominates(b)

    @given(clock_dicts, clock_dicts)
    def test_join_commutes(self, da, db):
        ab = VectorClock(da)
        ab.join(VectorClock(db))
        ba = VectorClock(db)
        ba.join(VectorClock(da))
        assert ab == ba

    @given(clock_dicts)
    def test_join_idempotent(self, d):
        a = VectorClock(d)
        before = a.copy()
        assert a.join(before) is False
        assert a == before

    @given(clock_dicts, clock_dicts, clock_dicts)
    def test_join_associates(self, da, db, dc):
        left = VectorClock(da)
        left.join(VectorClock(db))
        left.join(VectorClock(dc))
        bc = VectorClock(db)
        bc.join(VectorClock(dc))
        right = VectorClock(da)
        right.join(bc)
        assert left == right

    @given(clock_dicts, clock_dicts)
    def test_dominates_is_pointwise(self, da, db):
        a, b = VectorClock(da), VectorClock(db)
        expected = all(a.get(t) >= v for t, v in db.items())
        assert a.dominates(b) == expected
