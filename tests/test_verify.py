"""Tests for the correct-reordering checker (Definition 2.1)."""

import pytest

from repro.core.events import Event, EventKind
from repro.core.exceptions import MalformedReorderingError
from repro.core.trace import TraceBuilder
from repro.vindicate.verify import check_correct_reordering, check_witness
from repro.traces.litmus import figure1


def pick(trace, *eids):
    return [trace[i] for i in eids]


class TestMembership:
    def test_original_order_is_accepted(self):
        trace = figure1()
        check_correct_reordering(trace, list(trace))

    def test_prefix_is_accepted(self):
        trace = figure1()
        check_correct_reordering(trace, list(trace)[:4])

    def test_foreign_event_rejected(self):
        trace = figure1()
        alien = Event(99, 9, EventKind.WRITE, "q")
        with pytest.raises(MalformedReorderingError, match="not an event"):
            check_correct_reordering(trace, [alien])

    def test_duplicate_event_rejected(self):
        trace = figure1()
        with pytest.raises(MalformedReorderingError, match="twice"):
            check_correct_reordering(trace, [trace[0], trace[0]])


class TestPORule:
    def test_swapped_same_thread_events_rejected(self):
        trace = TraceBuilder().wr(1, "x").rd(1, "y").build()
        with pytest.raises(MalformedReorderingError) as err:
            check_correct_reordering(trace, [trace[1], trace[0]])
        assert err.value.rule == "PO"

    def test_gap_in_thread_prefix_rejected(self):
        trace = TraceBuilder().wr(1, "x").rd(1, "y").rd(1, "z").build()
        with pytest.raises(MalformedReorderingError) as err:
            check_correct_reordering(trace, [trace[0], trace[2]])
        assert err.value.rule == "PO"

    def test_dropping_a_suffix_is_fine(self):
        trace = TraceBuilder().wr(1, "x").rd(1, "y").rd(1, "z").build()
        check_correct_reordering(trace, [trace[0]])


class TestCARule:
    def test_swapped_conflicting_accesses_rejected(self):
        trace = TraceBuilder().wr(1, "x").rd(2, "x").build()
        with pytest.raises(MalformedReorderingError) as err:
            check_correct_reordering(trace, [trace[1], trace[0]])
        assert err.value.rule == "CA"

    def test_missing_conflicting_predecessor_rejected(self):
        trace = TraceBuilder().wr(1, "x").rd(2, "x").build()
        with pytest.raises(MalformedReorderingError) as err:
            check_correct_reordering(trace, [trace[1]])
        assert err.value.rule == "CA"

    def test_swap_error_names_both_events(self):
        trace = TraceBuilder().wr(1, "x").wr(1, "y").rd(2, "x").build()
        with pytest.raises(MalformedReorderingError,
                           match=r"conflicting accesses wr\(x\)@T1#0 and "
                                 r"rd\(x\)@T2#2 were swapped"):
            check_correct_reordering(trace, pick(trace, 2, 0, 1))

    def test_missing_predecessor_error_names_both_events(self):
        trace = TraceBuilder().rd(1, "x").wr(1, "y").wr(2, "x").build()
        with pytest.raises(MalformedReorderingError,
                           match=r"wr\(x\)@T2#2 is included but its "
                                 r"conflicting predecessor rd\(x\)@T1#0 "
                                 r"is not"):
            check_correct_reordering(trace, pick(trace, 2))

    def test_earlier_predecessor_reached_through_write_chain(self):
        # T3's read needs T2's write (its previous write), which in turn
        # needs T1's read; omitting only that read must still be caught.
        trace = (TraceBuilder()
                 .rd(1, "x").wr(2, "x").rd(3, "x").build())
        with pytest.raises(MalformedReorderingError) as err:
            check_correct_reordering(trace, pick(trace, 1, 2))
        assert err.value.rule == "CA"
        assert "#1" in str(err.value) and "#0" in str(err.value)

    def test_read_read_pairs_may_swap(self):
        trace = TraceBuilder().rd(1, "x").rd(2, "x").build()
        check_correct_reordering(trace, [trace[1], trace[0]])

    def test_interleaving_between_conflicts_allowed(self):
        trace = TraceBuilder().wr(1, "x").wr(1, "q").rd(2, "x").build()
        check_correct_reordering(trace, pick(trace, 0, 2))


class TestLSRule:
    def test_overlapping_critical_sections_rejected(self):
        trace = (TraceBuilder()
                 .acq(1, "m").rel(1, "m").acq(2, "m").rel(2, "m").build())
        with pytest.raises(MalformedReorderingError) as err:
            check_correct_reordering(trace, pick(trace, 0, 2, 1, 3))
        assert err.value.rule == "LS"

    def test_swapped_sections_accepted(self):
        trace = (TraceBuilder()
                 .acq(1, "m").rel(1, "m").acq(2, "m").rel(2, "m").build())
        check_correct_reordering(trace, pick(trace, 2, 3, 0, 1))

    def test_open_section_at_end_accepted(self):
        trace = (TraceBuilder()
                 .acq(1, "m").rel(1, "m").acq(2, "m").rel(2, "m").build())
        check_correct_reordering(trace, pick(trace, 0, 1, 2))

    def test_release_without_acquire_rejected(self):
        trace = TraceBuilder().acq(1, "m").rel(1, "m").build()
        # PO catches the missing acquire first (prefix rule).
        with pytest.raises(MalformedReorderingError):
            check_correct_reordering(trace, [trace[1]])


class TestThreadEdges:
    def test_child_without_fork_rejected(self):
        trace = TraceBuilder().fork(1, 2).wr(2, "x").build()
        with pytest.raises(MalformedReorderingError):
            check_correct_reordering(trace, [trace[1]])

    def test_fork_after_child_event_rejected(self):
        trace = TraceBuilder().fork(1, 2).wr(2, "x").build()
        with pytest.raises(MalformedReorderingError):
            check_correct_reordering(trace, [trace[1], trace[0]])

    def test_join_with_incomplete_child_rejected(self):
        trace = TraceBuilder().wr(2, "x").wr(2, "y").join(1, 2).build()
        with pytest.raises(MalformedReorderingError):
            check_correct_reordering(trace, pick(trace, 0, 2))

    def test_join_after_full_child_accepted(self):
        trace = TraceBuilder().wr(2, "x").wr(2, "y").join(1, 2).build()
        check_correct_reordering(trace, pick(trace, 0, 1, 2))

    def test_swapped_volatile_write_read_rejected(self):
        trace = TraceBuilder().vwr(1, "v").vrd(2, "v").build()
        with pytest.raises(MalformedReorderingError):
            check_correct_reordering(trace, pick(trace, 1, 0))

    def test_volatile_read_read_may_swap(self):
        trace = TraceBuilder().vrd(1, "v").vrd(2, "v").build()
        check_correct_reordering(trace, pick(trace, 1, 0))


class TestWitness:
    def test_valid_witness_accepted(self):
        trace = figure1()
        witness = pick(trace, 4, 5, 6, 0, 7)
        check_witness(trace, witness, trace[0], trace[7])

    def test_non_consecutive_witness_rejected(self):
        trace = figure1()
        witness = pick(trace, 0, 4, 5, 6, 7)
        with pytest.raises(MalformedReorderingError, match="consecutive"):
            check_witness(trace, witness, trace[0], trace[7])

    def test_non_conflicting_pair_rejected(self):
        trace = TraceBuilder().wr(1, "x").rd(2, "y").build()
        with pytest.raises(MalformedReorderingError, match="not conflicting"):
            check_witness(trace, list(trace), trace[0], trace[1])

    def test_witness_missing_racing_event_rejected(self):
        trace = TraceBuilder().wr(1, "x").rd(2, "x").build()
        with pytest.raises(MalformedReorderingError, match="omits"):
            check_witness(trace, [trace[0]], trace[0], trace[1])
