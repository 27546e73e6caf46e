"""The simulator core: a clock, an event queue, and run-loop controls.

Example:
    >>> sim = Simulator(seed=42)
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda ev: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Optional, Union

from repro.obs.names import SIM_COMPACTIONS, SIM_EVENTS, SIM_HEAP_SIZE
from repro.obs.recorder import Recorder, active, check_limit
from repro.sim.events import DEFAULT_PRIORITY, CalendarQueue, Event, EventQueue, make_queue
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class StopSimulation(Exception):
    """Raise inside an event callback to halt the run loop immediately."""


def schedule_error(time: float, now: float) -> SimulationError:
    """The error for an event at ``time`` that fails ``time >= now``.

    The guard itself is one comparison at each call site, which NaN
    fails as well as the past; this builds the message only then.
    """
    if time != time:
        return SimulationError("cannot schedule an event at a NaN time")
    return SimulationError(
        f"cannot schedule event at t={time} before current time t={now}"
    )


class Simulator:
    """A discrete-event simulator with deterministic, seeded randomness.

    The simulator advances a floating-point clock from event to event.
    Components schedule callbacks with :meth:`schedule` (absolute time) or
    :meth:`schedule_after` (relative delay) and may cancel pending events.

    Randomness is provided through :attr:`rng`, a registry of named,
    independently seeded streams, so that (for example) the node-selection
    stream and the job-duration stream of a DCA simulation never perturb
    each other when one subsystem draws more numbers.

    Attributes:
        now: Current simulated time.  Starts at 0.0.
        rng: The :class:`~repro.sim.rng.RngRegistry` for this run.
        recorder: The telemetry recorder, or ``None``.  Disabled
            recorders (e.g. :class:`~repro.obs.recorder.NullRecorder`)
            are normalized to ``None`` at construction, so the run loop
            itself stays untouched when telemetry is off; the engine
            records run-level aggregates (events processed, heap size,
            compactions) after each :meth:`run`.
        queue_kind: Which event structure backs the queue -- ``"heap"``
            (default) or ``"calendar"``; see
            :func:`repro.sim.events.make_queue`.  Both produce the exact
            same pop order, so results never depend on the choice.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        *,
        queue: str = "heap",
    ) -> None:
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self.queue_kind = queue
        self._queue = make_queue(queue)
        self._running = False
        self._events_processed = 0
        self.recorder = active(recorder)

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def schedule(
        self,
        time: float,
        callback: Callable[[Event], None],
        *,
        priority: int = DEFAULT_PRIORITY,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises:
            SimulationError: if ``time`` precedes the current clock or is
                NaN (``+inf`` is legal: such an event never fires before
                any finite one).
        """
        # One comparison on the hot path: NaN fails it as well as the past.
        if not time >= self.now:
            raise schedule_error(time, self.now)
        return self._queue.push(time, callback, priority=priority, payload=payload)

    @property
    def queue(self) -> Union[EventQueue, CalendarQueue]:
        """The event queue, for components that queue :class:`Event`
        objects of their own through its ``insert`` under the
        :func:`schedule_error` guard (the DES task server's jobs)."""
        return self._queue

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[Event], None],
        *,
        priority: int = DEFAULT_PRIORITY,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` after a non-negative relative ``delay``.

        A NaN delay is rejected by :meth:`schedule`'s NaN check.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback, priority=priority, payload=payload)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if already fired or cancelled)."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Number of event callbacks executed so far."""
        return self._events_processed

    def peek(self) -> Optional[float]:
        """Time of the next event, or ``None`` if the queue is empty."""
        return self._queue.peek_time()

    def step(self) -> bool:
        """Fire the single next event.  Returns False if none remained."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:  # pragma: no cover - guarded by schedule()
            raise SimulationError("event queue produced an event in the past")
        self.now = event.time
        self._events_processed += 1
        event.callback(event)
        return True

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or a limit hits.

        Args:
            until: If given, stop once the next event would fire strictly
                after ``until`` and set the clock to ``until``.
            max_events: If given, stop after that many additional events.
                Useful as a runaway guard in tests.

        The cyclic garbage collector is paused for the loop, and the
        caller's setting is restored on every way out; a caller that had
        it disabled keeps it disabled.  No DES substrate makes cyclic
        garbage mid-run (``tests/sim/test_cycle_free_runs.py``), so a
        pass would only re-walk the run's live state.  The collector is
        process-wide: cycles other threads make during a run wait until
        it ends.

        Raises:
            ValueError: if ``max_events`` is not ``None`` or a
                non-negative integer (a bool, a float such as NaN -- which
                would never trip the guard -- or a negative count).
        """
        check_limit("max_events", max_events)
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        processed = 0
        # Hot loop: one queue call per event (pop_due folds the peek and
        # the pop into a single cancelled-entry sweep) and local bindings
        # for everything touched per iteration.
        queue = self._queue
        pop_due = queue.pop_due
        recorder = self.recorder
        if recorder is not None:
            events_before = self._events_processed
            compactions_before = queue.compactions
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                if max_events is not None and processed >= max_events:
                    # The horizon check historically preceded the budget
                    # check: an out-of-horizon next event still advances
                    # the clock to ``until`` before stopping.
                    next_time = queue.peek_time()
                    if until is not None and next_time is not None and next_time > until:
                        self.now = until
                    break
                event = pop_due(until)
                if event is None:
                    if until is not None and queue:
                        # Next live event lies beyond the horizon.
                        self.now = until
                    break
                self.now = event.time
                self._events_processed += 1
                try:
                    event.callback(event)
                except StopSimulation:
                    break
                processed += 1
            if until is not None and self.now < until and queue.peek_time() is None:
                # Queue drained before the horizon: advance to the horizon so
                # time-weighted metrics integrate over the full window.
                self.now = until
        finally:
            self._running = False
            if collecting:
                gc.enable()
        if recorder is not None:
            # Run-level aggregates only: the hot loop above is untouched,
            # so telemetry-off runs execute exactly the historical path.
            recorder.count(SIM_EVENTS, self._events_processed - events_before)
            recorder.count(SIM_COMPACTIONS, queue.compactions - compactions_before)
            recorder.gauge(SIM_HEAP_SIZE, queue.heap_size)

    def reset(self, seed: Optional[int] = None) -> None:
        """Clear the queue and clock for reuse, reseeding the RNG registry.

        The queue kind chosen at construction is preserved.
        """
        self._queue.clear()
        self.now = 0.0
        self._events_processed = 0
        self.rng = RngRegistry(seed)
