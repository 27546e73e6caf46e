"""Event records and the stable event queue underlying the simulator.

Events are ordered by simulated time, then by priority, then by insertion
sequence number.  The sequence number makes ordering *stable*: two events
scheduled for the same instant fire in the order they were scheduled, which
keeps simulations deterministic for a fixed seed regardless of heap
internals.

Performance notes (the queue is the single hottest structure in every
DES run):

* :class:`Event` uses ``__slots__`` instead of a dataclass ``__dict__``;
  heap entries are ``(time, priority, seq, event)`` tuples so ``heapq``
  compares plain tuples in C instead of calling ``Event.__lt__`` in
  Python (``seq`` is unique, so comparisons never reach the event).
* Cancellation stays lazy (O(1)), but the queue now *compacts* the heap
  whenever cancelled entries outnumber live ones past a threshold, so
  heavy cancel/reschedule churn (every completed job cancels its
  deadline event) can no longer grow the heap without bound.
* At very high event density the ``log n`` of the binary heap itself
  becomes the bottleneck, so :class:`CalendarQueue` offers a calendar
  queue (Brown 1988) with amortised O(1) push/pop.  Both structures
  implement the same interface and produce the **exact same pop order**
  for any input (the total order is ``(time, priority, seq)`` either
  way); :func:`make_queue` selects one by name.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

#: Default priority for scheduled events.  Lower values fire first among
#: events scheduled for the same simulated time.
DEFAULT_PRIORITY = 0

#: Compact only when at least this many cancelled entries are pending;
#: below it the rebuild costs more than the lazy pops it saves.
COMPACT_MIN_CANCELLED = 64


class Event:
    """A single scheduled occurrence in the simulation.

    Attributes:
        time: Simulated time at which the event fires.
        priority: Tie-break among events at the same time (lower first).
        seq: Insertion sequence number; makes ordering total and stable.
        callback: Callable invoked when the event fires.  It receives the
            event itself, so payloads can be carried via :attr:`payload`.
        payload: Arbitrary user data attached to the event.
        cancelled: True once :meth:`cancel` has been called; cancelled
            events are skipped (and discarded) by the queue.
        fired: True once the queue has popped the event to fire it; a
            later cancel is then a no-op, so it cannot corrupt the
            queue's live count.
    """

    __slots__ = ("time", "priority", "seq", "callback", "payload", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[["Event"], None],
        payload: Any = None,
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.payload = payload
        self.cancelled = cancelled
        self.fired = False

    def cancel(self) -> None:
        """Mark this event so the queue will skip it.

        Cancellation is O(1); the event stays in the heap until popped or
        compacted away.  Cancelling an already-cancelled event is a no-op.
        """
        self.cancelled = True

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6g} prio={self.priority} seq={self.seq}{state}>"


#: One heap entry: the tuple prefix is the exact historical sort key, so
#: replacing ``Event.__lt__`` comparisons with tuple comparisons cannot
#: change pop order for any input (``seq`` is unique per queue).
_HeapEntry = Tuple[float, int, int, Event]


class EventQueue:
    """A stable priority queue of :class:`Event` objects.

    Wraps :mod:`heapq` with lazy deletion for cancelled events, periodic
    compaction, and a monotone sequence counter for stable ordering.
    """

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._next_seq = 0
        self._live = 0
        #: Cancelled entries still physically present in the heap.
        self._cancelled_pending = 0
        #: Cumulative :meth:`compact` sweeps (telemetry; survives clear()).
        self.compactions = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Physical heap entries, live *and* lazily-deleted (for tests and
        memory diagnostics; ``heap_size - len(queue)`` is the garbage)."""
        return len(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[[Event], None],
        *,
        priority: int = DEFAULT_PRIORITY,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, callback, payload)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it is still pending (not fired or cancelled)."""
        if not (event.cancelled or event.fired):
            event.cancelled = True
            self._live -= 1
            self._cancelled_pending += 1
            if (
                self._cancelled_pending >= COMPACT_MIN_CANCELLED
                and self._cancelled_pending * 2 >= len(self._heap)
            ):
                self.compact()

    def compact(self) -> None:
        """Physically drop every cancelled entry and re-heapify.

        Pop order is unaffected: entries keep their ``(time, priority,
        seq)`` keys, and heapify preserves the induced total order.
        """
        if self._cancelled_pending == 0:
            return
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self.compactions += 1

    def peek_time(self) -> Optional[float]:
        """Return the time of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1
        if heap:
            return heap[0][0]
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        return self.pop_due(None)

    def pop_due(self, limit: Optional[float]) -> Optional[Event]:
        """Pop the next live event, unless it fires strictly after ``limit``.

        Returns ``None`` when the queue is empty *or* the next live event
        lies beyond ``limit`` (distinguish via ``bool(queue)``).  This is
        the run loop's single-call fast path: one cancelled-entry sweep
        serves both the peek and the pop.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
                self._cancelled_pending -= 1
                continue
            if limit is not None and entry[0] > limit:
                return None
            heappop(heap)
            self._live -= 1
            event = entry[3]
            event.fired = True
            return event
        return None

    def clear(self) -> None:
        """Drop every queued event."""
        self._heap.clear()
        self._live = 0
        self._cancelled_pending = 0


#: Smallest calendar size; below this the ring buys nothing over a heap.
_CALENDAR_MIN_BUCKETS = 8
#: How many of the soonest events the width estimator samples (Brown
#: samples a bounded head so resize stays O(n) with a small constant).
_CALENDAR_WIDTH_SAMPLE = 25


class CalendarQueue:
    """A calendar queue (Brown 1988) with the heap's exact pop order.

    Events are hashed into a ring of time buckets of uniform ``width``;
    a pop scans from the current bucket forward, considering only
    entries that fall inside the bucket's current *year* (one full ring
    revolution).  With the ring sized to the live event count, pushes
    and pops touch O(1) entries on average, versus the heap's O(log n)
    -- the win shows up at the event densities of million-node runs.

    Determinism: buckets partition the time axis into disjoint
    intervals, so any in-year entry of the current bucket precedes every
    in-year entry of later buckets; within a bucket the minimum is taken
    by the full ``(time, priority, seq)`` key.  The induced pop order is
    therefore *identical* to :class:`EventQueue`'s for any schedule --
    property-tested in ``tests/sim/test_calendar_queue.py``.

    Cancellation is lazy with the same compaction policy as the heap;
    the ring doubles when live entries outgrow it and halves (down to a
    floor) when they shrink, re-estimating the bucket width from the
    sorted gaps of the soonest pending events each time.

    The in-year scan assumes the DES contract that pushes never predate
    the last popped time (``Simulator.schedule`` guards this).  Earlier
    pushes still pop -- the global-min fallback catches anything the
    year scan misses -- but steady-state O(1) behaviour needs the
    contract to hold.
    """

    def __init__(self) -> None:
        self._next_seq = 0
        self._live = 0
        self._cancelled_pending = 0
        #: Cumulative :meth:`compact` sweeps (telemetry; survives clear()).
        self.compactions = 0
        self._size = 0
        self._last_time = 0.0
        self._init_ring(_CALENDAR_MIN_BUCKETS, 1.0)

    # ------------------------------------------------------------------
    # Ring plumbing
    # ------------------------------------------------------------------

    def _init_ring(self, nbuckets: int, width: float) -> None:
        self._buckets: List[List[_HeapEntry]] = [[] for _ in range(nbuckets)]
        self._nbuckets = nbuckets
        self._width = width
        day = self._day_of(self._last_time)
        self._current = day % nbuckets
        #: Upper time bound of the current bucket's ongoing year visit.
        self._bucket_top = (day + 1) * width

    def _day_of(self, time: float) -> int:
        """Which bucket-width interval ``time`` falls in.

        Events at non-finite times are legal -- an infinite inter-event
        delay is the model's "never" (e.g. a vanishing churn rate) --
        but cannot be hashed to a day.  Day 0 is as correct as any
        other: bucket placement never affects pop order (an inf entry
        fails every in-year test and is reached only by the global-min
        fallback); it only affects the O(1) steady-state, which an
        at-infinity event does not have anyway.
        """
        quotient = time / self._width
        return int(quotient) if math.isfinite(quotient) else 0

    def _insert(self, entry: _HeapEntry) -> None:
        self._buckets[self._day_of(entry[0]) % self._nbuckets].append(entry)
        self._size += 1

    def _resize(self, nbuckets: int) -> None:
        entries = [
            entry
            for bucket in self._buckets
            for entry in bucket
            if not entry[3].cancelled
        ]
        self._cancelled_pending = 0
        self._size = 0
        self._init_ring(max(_CALENDAR_MIN_BUCKETS, nbuckets), self._estimate_width(entries))
        for entry in entries:
            self._insert(entry)

    def _estimate_width(self, entries: List[_HeapEntry]) -> float:
        """Bucket width from the mean gap of the soonest pending events.

        Deterministic (pure function of the pending schedule): sort the
        entry times, take the head sample, and spread each event over
        three mean gaps (Brown's rule of thumb keeps buckets at a few
        entries each without stranding years of empty buckets).
        """
        if len(entries) < 2:
            return max(self._width, 1e-9)
        # At-infinity events carry no spacing information and would blow
        # the width out to inf/nan; estimate from the finite schedule.
        times = sorted(entry[0] for entry in entries if math.isfinite(entry[0]))
        if len(times) < 2:
            return max(self._width, 1e-9)
        sample = times[: max(2, min(len(times), _CALENDAR_WIDTH_SAMPLE))]
        span = sample[-1] - sample[0]
        if span <= 0.0:
            # Co-scheduled burst: keep the current width; ties all land in
            # one bucket and the in-bucket key ordering handles them.
            return max(self._width, 1e-9)
        return 3.0 * span / (len(sample) - 1)

    # ------------------------------------------------------------------
    # Queue interface (mirrors EventQueue exactly)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Physical entries, live *and* lazily-deleted (diagnostics)."""
        return self._size

    def push(
        self,
        time: float,
        callback: Callable[[Event], None],
        *,
        priority: int = DEFAULT_PRIORITY,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, callback, payload)
        self._insert((time, priority, seq, event))
        self._live += 1
        if self._live > 2 * self._nbuckets:
            self._resize(2 * self._nbuckets)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it is still pending (not fired or cancelled)."""
        if not (event.cancelled or event.fired):
            event.cancelled = True
            self._live -= 1
            self._cancelled_pending += 1
            if (
                self._cancelled_pending >= COMPACT_MIN_CANCELLED
                and self._cancelled_pending * 2 >= self._size
            ):
                self.compact()

    def compact(self) -> None:
        """Physically drop every cancelled entry (and right-size the ring)."""
        if self._cancelled_pending == 0:
            return
        self._resize(self._ring_target())
        self.compactions += 1

    def _ring_target(self) -> int:
        target = _CALENDAR_MIN_BUCKETS
        while target < self._live:
            target *= 2
        return target

    def peek_time(self) -> Optional[float]:
        """Return the time of the next live event, or ``None`` if empty."""
        entry = self._find_next(None, pop=False)
        return entry[0] if entry is not None else None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        return self.pop_due(None)

    def pop_due(self, limit: Optional[float]) -> Optional[Event]:
        """Pop the next live event, unless it fires strictly after ``limit``.

        Same contract as :meth:`EventQueue.pop_due`: ``None`` when empty
        *or* when the next live event lies beyond ``limit``.
        """
        entry = self._find_next(limit, pop=True)
        if entry is None:
            return None
        event = entry[3]
        event.fired = True
        return event

    def _find_next(
        self, limit: Optional[float], *, pop: bool
    ) -> Optional[_HeapEntry]:
        if self._size == 0:
            return None
        index = self._current
        top = self._bucket_top
        width = self._width
        for _ in range(self._nbuckets):
            bucket = self._buckets[index]
            best = -1
            best_key: Optional[Tuple[float, int, int]] = None
            position = 0
            while position < len(bucket):
                entry = bucket[position]
                if entry[3].cancelled:
                    # Swap-remove; order within a bucket is irrelevant.
                    bucket[position] = bucket[-1]
                    bucket.pop()
                    self._cancelled_pending -= 1
                    self._size -= 1
                    continue
                if entry[0] < top:
                    key = entry[:3]
                    if best_key is None or key < best_key:
                        best_key = key
                        best = position
                position += 1
            if best >= 0:
                entry = bucket[best]
                if limit is not None and entry[0] > limit:
                    return None
                if pop:
                    self._remove(bucket, best, entry, index, top)
                return entry
            index = (index + 1) % self._nbuckets
            top += width
        # A full revolution found nothing in-year: the next live event
        # lies one or more years out (or everything left was cancelled
        # and has just been purged).  Fall back to a direct global-min
        # search -- by the full key, so the total order is preserved even
        # at float bucket-boundary edge cases -- and jump the calendar to
        # the event's day so steady-state pops stay O(1).
        best_bucket = best = -1
        best_key = None
        for number, bucket in enumerate(self._buckets):
            for position, entry in enumerate(bucket):
                key = entry[:3]
                if best_key is None or key < best_key:
                    best_key = key
                    best_bucket, best = number, position
        if best_key is None:
            return None
        bucket = self._buckets[best_bucket]
        entry = bucket[best]
        if limit is not None and entry[0] > limit:
            return None
        if pop:
            # Jump the calendar to the popped event's day -- only on a
            # real pop: repositioning on a peek (or a beyond-limit probe)
            # would let later, earlier-timed pushes land behind the scan
            # position and be missed by the in-year pass.
            day = self._day_of(entry[0])
            self._remove(
                bucket, best, entry, day % self._nbuckets, (day + 1) * self._width
            )
        return entry

    def _remove(
        self,
        bucket: List[_HeapEntry],
        position: int,
        entry: _HeapEntry,
        index: int,
        top: float,
    ) -> None:
        bucket[position] = bucket[-1]
        bucket.pop()
        self._live -= 1
        self._size -= 1
        self._last_time = entry[0]
        self._current = index
        self._bucket_top = top
        if (
            self._nbuckets > _CALENDAR_MIN_BUCKETS
            and self._live * 2 < self._nbuckets
        ):
            self._resize(self._nbuckets // 2)

    def clear(self) -> None:
        """Drop every queued event."""
        self._live = 0
        self._cancelled_pending = 0
        self._size = 0
        self._last_time = 0.0
        self._init_ring(_CALENDAR_MIN_BUCKETS, 1.0)


#: Selectable event-queue structures: the tuple heap is the default; the
#: calendar queue wins at sustained high event density (see
#: ``docs/scaling.md`` for when to pick which).
QUEUE_KINDS = ("heap", "calendar")


def make_queue(kind: str = "heap"):
    """Build an event queue by name (``"heap"`` or ``"calendar"``)."""
    if kind == "heap":
        return EventQueue()
    if kind == "calendar":
        return CalendarQueue()
    raise ValueError(f"unknown event queue kind {kind!r}; choose from {QUEUE_KINDS}")
