"""Equivalence tests: :class:`CalendarQueue` vs the binary-heap
:class:`EventQueue`.

The calendar queue is selectable wherever the heap is
(``Simulator(queue="calendar")``), so the two structures must agree on
the *exact* pop order -- the full ``(time, priority, seq)`` total order,
including ties -- under pushes, cancellations, bounded pops
(``pop_due``), and compaction.  The property tests drive both queues
with identical operation sequences that respect the DES contract
(pushes never go behind the last popped time) and assert byte-identical
behavior; the end-to-end test runs the same DCA simulation on both
queue kinds and compares full reports.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IterativeRedundancy
from repro.dca import DcaConfig, run_dca
from repro.sim.events import (
    COMPACT_MIN_CANCELLED,
    CalendarQueue,
    EventQueue,
    QUEUE_KINDS,
    make_queue,
)


def _noop(event):
    pass


class TestMakeQueue:
    def test_kinds(self):
        assert isinstance(make_queue("heap"), EventQueue)
        assert isinstance(make_queue("calendar"), CalendarQueue)
        assert set(QUEUE_KINDS) == {"heap", "calendar"}

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="calendar"):
            make_queue("fibonacci")


class TestCalendarBasics:
    def test_empty_queue_is_falsy(self):
        queue = CalendarQueue()
        assert not queue
        assert len(queue) == 0
        assert queue.pop() is None
        assert queue.peek_time() is None

    def test_pops_in_time_order(self):
        queue = CalendarQueue()
        queue.push(5.0, _noop, payload="late")
        queue.push(1.0, _noop, payload="early")
        queue.push(3.0, _noop, payload="middle")
        assert [queue.pop().payload for _ in range(3)] == [
            "early",
            "middle",
            "late",
        ]

    def test_same_time_pops_in_insertion_order(self):
        queue = CalendarQueue()
        for i in range(10):
            queue.push(2.0, _noop, payload=i)
        assert [queue.pop().payload for _ in range(10)] == list(range(10))

    def test_priority_breaks_time_ties(self):
        queue = CalendarQueue()
        queue.push(1.0, _noop, priority=5, payload="low")
        queue.push(1.0, _noop, priority=-5, payload="high")
        assert queue.pop().payload == "high"
        assert queue.pop().payload == "low"

    def test_pop_due_respects_limit(self):
        queue = CalendarQueue()
        queue.push(1.0, _noop, payload="a")
        queue.push(2.0, _noop, payload="b")
        assert queue.pop_due(1.5).payload == "a"
        assert queue.pop_due(1.5) is None
        assert len(queue) == 1
        assert queue.pop_due(None).payload == "b"

    def test_cancelled_events_are_skipped(self):
        queue = CalendarQueue()
        keep = queue.push(1.0, _noop, payload="keep")
        drop = queue.push(0.5, _noop, payload="drop")
        queue.cancel(drop)
        assert len(queue) == 1
        assert queue.pop() is keep
        assert queue.pop() is None

    def test_clear_resets_but_keeps_seq_monotone(self):
        queue = CalendarQueue()
        first = queue.push(1.0, _noop)
        queue.clear()
        assert len(queue) == 0
        second = queue.push(1.0, _noop)
        assert second.seq > first.seq

    def test_growth_and_shrink_preserve_order(self):
        # Push enough to force several ring doublings, then drain past
        # the shrink threshold; order must stay exact throughout.
        queue = CalendarQueue()
        times = [((i * 7919) % 1000) / 10.0 for i in range(2000)]
        for t in times:
            queue.push(t, _noop, payload=t)
        popped = [queue.pop().payload for _ in range(2000)]
        assert popped == sorted(times)

    def test_events_at_infinity_are_legal_and_pop_last(self):
        # An infinite inter-event delay is the model's "never" (e.g. an
        # expovariate draw under a vanishing churn rate).  The heap
        # handles it natively; the calendar must too -- found by the
        # churn-config property test below.
        inf = float("inf")
        queue = CalendarQueue()
        never = queue.push(inf, _noop, payload="never")
        queue.push(1.0, _noop, payload="soon")
        queue.push(2.0, _noop, payload="later")
        # Resizing with an inf entry pending must not crash either.
        for index in range(40):
            queue.push(3.0 + index, _noop, payload=index)
        assert queue.pop().payload == "soon"
        assert queue.pop().payload == "later"
        for _ in range(40):
            queue.pop()
        assert queue.peek_time() == inf
        assert queue.pop() is never
        assert queue.pop() is None

    def test_mass_cancellation_triggers_compaction(self):
        queue = CalendarQueue()
        events = [queue.push(float(i), _noop) for i in range(4 * COMPACT_MIN_CANCELLED)]
        before = queue.compactions
        for event in events[: 3 * COMPACT_MIN_CANCELLED]:
            queue.cancel(event)
        assert queue.compactions > before
        survivors = [queue.pop() for _ in range(COMPACT_MIN_CANCELLED)]
        assert survivors == events[3 * COMPACT_MIN_CANCELLED :]
        assert queue.pop() is None


#: One property-test operation: (opcode, operand).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "push_tie", "pop", "pop_due", "peek", "cancel"]),
        st.integers(min_value=0, max_value=200),
    ),
    min_size=1,
    max_size=120,
)


def _drive(queue, ops):
    """Run one op sequence; returns the observable trace.

    Pushes are scheduled at ``now + delta`` (``now`` = last popped
    time), honoring the DES contract that nothing is scheduled in the
    past; ``push_tie`` schedules exactly at ``now`` to stress tie
    handling.  Cancels target a pseudo-randomly chosen live handle
    (deterministically -- same choice for both queues).
    """
    trace = []
    now = 0.0
    live = []
    for index, (op, operand) in enumerate(ops):
        if op == "push":
            event = queue.push(now + operand / 7.0, _noop, payload=index)
            live.append(event)
            trace.append(("len", len(queue)))
        elif op == "push_tie":
            event = queue.push(now, _noop, priority=operand % 3, payload=index)
            live.append(event)
            trace.append(("len", len(queue)))
        elif op == "pop":
            event = queue.pop()
            if event is not None:
                now = event.time
                if event in live:
                    live.remove(event)
            trace.append(("pop", None if event is None else event.payload))
        elif op == "pop_due":
            limit = now + operand / 11.0
            event = queue.pop_due(limit)
            if event is not None:
                now = event.time
                if event in live:
                    live.remove(event)
            trace.append(("pop_due", None if event is None else event.payload))
        elif op == "peek":
            trace.append(("peek", queue.peek_time()))
        elif op == "cancel" and live:
            victim = live.pop(operand % len(live))
            queue.cancel(victim)
            trace.append(("len", len(queue)))
    while True:
        event = queue.pop()
        trace.append(("drain", None if event is None else event.payload))
        if event is None:
            break
    return trace


class TestHeapCalendarEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_identical_traces(self, ops):
        heap_trace = _drive(EventQueue(), ops)
        calendar_trace = _drive(CalendarQueue(), ops)
        assert calendar_trace == heap_trace

    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_batch_pop_order_matches(self, times):
        heap, calendar = EventQueue(), CalendarQueue()
        for t in times:
            heap.push(t, _noop, payload=t)
            calendar.push(t, _noop, payload=t)
        heap_order = [heap.pop().payload for _ in range(len(times))]
        calendar_order = [calendar.pop().payload for _ in range(len(times))]
        assert calendar_order == heap_order == sorted(times)

    def test_dca_simulation_byte_identical(self):
        # The strongest end-to-end statement: the full DCA stack produces
        # identical reports (every metric and per-task record) on both
        # queue kinds.
        def run(kind):
            return run_dca(
                DcaConfig(
                    strategy=IterativeRedundancy(3),
                    tasks=150,
                    nodes=60,
                    reliability=0.7,
                    seed=11,
                    arrival_rate=0.4,
                    departure_rate=0.3,
                    queue=kind,
                )
            )

        heap_report = run("heap")
        calendar_report = run("calendar")
        assert heap_report.as_dict() == calendar_report.as_dict()
        assert [r.__dict__ for r in heap_report.records] == [
            r.__dict__ for r in calendar_report.records
        ]

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        arrival=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        departure=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        spot=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    )
    def test_dca_byte_identical_under_churn_and_spot_checks(
        self, seed, arrival, departure, spot
    ):
        # Churn-heavy and spot-check runs are the event-densest configs
        # the DES produces (join/leave events interleave with deadlines
        # and diverted spot jobs at the same timestamps), so they stress
        # exactly the tie-breaking the calendar queue must preserve.
        # to_json() covers every per-task record and overhead counter:
        # equality is byte-level, not statistical.
        def run(kind):
            return run_dca(
                DcaConfig(
                    strategy=IterativeRedundancy(2),
                    tasks=40,
                    nodes=16,
                    reliability=0.7,
                    seed=seed,
                    arrival_rate=arrival,
                    departure_rate=departure,
                    spot_check_rate=spot,
                    queue=kind,
                )
            )

        assert run("heap").to_json() == run("calendar").to_json()

    def test_config_rejects_unknown_queue(self):
        with pytest.raises(ValueError, match="queue"):
            DcaConfig(
                strategy=IterativeRedundancy(3),
                tasks=10,
                nodes=5,
                reliability=0.7,
                seed=1,
                queue="splay",
            )
