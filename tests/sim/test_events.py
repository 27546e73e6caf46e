"""Unit tests for the event queue: ordering, stability, cancellation,
and the lazy-deletion memory bound."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import COMPACT_MIN_CANCELLED, QUEUE_KINDS, Event, EventQueue, make_queue


def _noop(event):
    pass


class TestEventQueueBasics:
    def test_empty_queue_is_falsy(self):
        queue = EventQueue()
        assert not queue
        assert len(queue) == 0
        assert queue.pop() is None
        assert queue.peek_time() is None

    def test_push_and_pop_single(self):
        queue = EventQueue()
        event = queue.push(3.0, _noop)
        assert len(queue) == 1
        assert queue.peek_time() == 3.0
        assert queue.pop() is event
        assert len(queue) == 0

    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(5.0, _noop, payload="late")
        queue.push(1.0, _noop, payload="early")
        queue.push(3.0, _noop, payload="middle")
        order = [queue.pop().payload for _ in range(3)]
        assert order == ["early", "middle", "late"]

    def test_same_time_pops_in_insertion_order(self):
        queue = EventQueue()
        for i in range(10):
            queue.push(2.0, _noop, payload=i)
        assert [queue.pop().payload for _ in range(10)] == list(range(10))

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        queue.push(1.0, _noop, priority=5, payload="low")
        queue.push(1.0, _noop, priority=-1, payload="high")
        assert queue.pop().payload == "high"
        assert queue.pop().payload == "low"

    def test_clear_empties_queue(self):
        queue = EventQueue()
        for i in range(5):
            queue.push(float(i), _noop)
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        doomed = queue.push(1.0, _noop, payload="doomed")
        queue.push(2.0, _noop, payload="kept")
        queue.cancel(doomed)
        assert len(queue) == 1
        assert queue.pop().payload == "kept"

    def test_cancel_updates_peek(self):
        queue = EventQueue()
        first = queue.push(1.0, _noop)
        queue.push(4.0, _noop)
        queue.cancel(first)
        assert queue.peek_time() == 4.0

    def test_double_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1

    def test_cancel_all_leaves_empty_queue(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(5)]
        for event in events:
            queue.cancel(event)
        assert not queue
        assert queue.pop() is None


class TestCompaction:
    """Lazy deletion must not leak: cancelled entries are physically
    removed once they are both numerous (>= COMPACT_MIN_CANCELLED) and
    the majority of the heap, bounding memory at ~2x the live set."""

    def test_heap_size_stays_bounded_under_cancel_churn(self):
        queue = EventQueue()
        live = [queue.push(1e9, _noop) for _ in range(10)]
        # Schedule-and-cancel far more events than the compaction
        # threshold; without compaction the physical heap would hold
        # every cancelled entry until its pop time (1e9) arrives.
        for i in range(50 * COMPACT_MIN_CANCELLED):
            queue.cancel(queue.push(1e9 + i, _noop))
            assert queue.heap_size <= max(
                2 * len(queue) + 1, COMPACT_MIN_CANCELLED + len(queue)
            )
        assert len(queue) == 10
        assert queue.heap_size < 2 * COMPACT_MIN_CANCELLED + len(live)

    def test_compaction_preserves_pop_order(self):
        queue = EventQueue()
        survivors = []
        for i in range(4 * COMPACT_MIN_CANCELLED):
            event = queue.push(float(i % 97), _noop, payload=i)
            if i % 3 == 0:
                survivors.append((i % 97, i))
            else:
                queue.cancel(event)
        popped = [(int(queue.pop().time), None) for _ in range(len(queue))]
        assert [t for t, _ in popped] == sorted(t for t, _ in survivors)

    def test_explicit_compact_drops_cancelled_entries(self):
        queue = EventQueue()
        doomed = [queue.push(float(i), _noop) for i in range(8)]
        kept = queue.push(100.0, _noop)
        for event in doomed:
            queue.cancel(event)
        assert queue.heap_size == 9
        queue.compact()
        assert queue.heap_size == 1
        assert len(queue) == 1
        assert queue.pop() is kept


class TestEventObject:
    def test_sort_key_total_order(self):
        a = Event(time=1.0, priority=0, seq=0, callback=_noop)
        b = Event(time=1.0, priority=0, seq=1, callback=_noop)
        c = Event(time=0.5, priority=9, seq=2, callback=_noop)
        assert a < b
        assert c < a

    def test_cancel_flag(self):
        event = Event(time=1.0, priority=0, seq=0, callback=_noop)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled


@pytest.mark.parametrize("kind", QUEUE_KINDS)
class TestInsert:
    """``insert`` queues a caller-built event exactly as ``push`` would."""

    def test_negative_seq_takes_the_next_number(self, kind):
        queue = make_queue(kind)
        first = queue.push(1.0, _noop, payload="push")
        event = Event(1.0, 0, -1, _noop, "insert")
        queue.insert(event)
        assert (first.seq, event.seq) == (0, 1)
        assert len(queue) == 2
        assert [queue.pop().payload for _ in range(2)] == ["push", "insert"]

    def test_reserved_seq_slots_in_at_reservation_order(self, kind):
        # The seq an event already holds reserves its place: re-queued
        # after a same-key push, it still pops first.
        queue = make_queue(kind)
        event = Event(1.0, 0, -1, _noop, "job")
        queue.insert(event)
        assert queue.pop() is event
        queue.push(2.0, _noop, payload="pushed later")
        event.time, event.fired = 2.0, False
        queue.insert(event)
        assert event.seq == 0
        assert [queue.pop().payload for _ in range(2)] == ["job", "pushed later"]

    def test_a_popped_event_can_be_requeued_in_place(self, kind):
        queue = make_queue(kind)
        event = Event(1.0, 0, -1, _noop, "job")
        queue.insert(event)
        queue.push(5.0, _noop, payload="tie")
        assert queue.pop() is event
        event.time, event.fired = 5.0, False
        queue.insert(event)
        assert [queue.pop().payload for _ in range(2)] == ["job", "tie"]
        assert not queue

    def test_matches_push_on_a_random_schedule(self, kind):
        pushed, inserted = make_queue(kind), make_queue(kind)
        times = [float((i * 7919) % 13) for i in range(200)]
        for i, time in enumerate(times):
            pushed.push(time, _noop, priority=i % 3, payload=i)
            inserted.insert(Event(time, i % 3, -1, _noop, i))
        assert [pushed.pop().payload for _ in times] == [inserted.pop().payload for _ in times]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_property_pops_sorted(times):
    """Whatever the insertion order, pops come out time-sorted."""
    queue = EventQueue()
    for t in times:
        queue.push(t, _noop, payload=t)
    popped = []
    while queue:
        popped.append(queue.pop().payload)
    assert popped == sorted(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_property_cancelled_never_pop(entries):
    """Cancelled events never come out; live events all do."""
    queue = EventQueue()
    live = []
    for t, keep in entries:
        event = queue.push(t, _noop, payload=t)
        if keep:
            live.append(t)
        else:
            queue.cancel(event)
    assert len(queue) == len(live)
    popped = []
    while queue:
        popped.append(queue.pop().payload)
    assert popped == sorted(live)
