"""The task server: job dispatch, vote bookkeeping, and strategy-driven
redundancy decisions (the central box of the paper's Figure 1).

Responsibilities:

* keep a FIFO queue of jobs awaiting a free node,
* assign each job to a *uniformly random* available node (assumption 1),
* watch deadlines: a job silent past the timeout counts as a failed
  response (Section 2.2) and its ``None`` outcome is folded into the vote,
* when a task's wave completes, ask the strategy to accept or extend,
* optionally divert a fraction of assignments to *spot-check* jobs
  (pure overhead on their own; with a credibility-manager strategy --
  the Sarmenta comparator -- the outcomes feed its reputation tallies).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.core.strategy import RedundancyStrategy, is_node_aware
from repro.core.types import Decision, JobOutcome, TaskVerdict, VoteState
from repro.dca.failures import ByzantineCollusion, FailureModel
from repro.dca.node import Node
from repro.dca.pool import NodePool
from repro.dca.report import TaskRecord
from repro.obs.names import (
    DCA_ACCEPTS,
    DCA_COMPLETES,
    DCA_DECIDE_EVENT,
    DCA_DECISIONS,
    DCA_DISPATCHES,
    DCA_JOBS_PER_TASK,
    DCA_JOB_SPAN,
    DCA_RESPONSE_TIME,
    DCA_SPOT_CHECKS,
    DCA_SUBMITS,
    DCA_TASK_SPAN,
    DCA_TIMEOUTS,
    DCA_WAVE_SIZE,
)
from repro.obs.recorder import active
from repro.sim.engine import Simulator, StopSimulation, schedule_error
from repro.sim.events import DEFAULT_PRIORITY, Event
from repro.sim.streams import DURATIONS, FAILURES, NODE_SELECTION, SPOT_CHECKS
from repro.dca.workload import Task


class _TaskState:
    __slots__ = (
        "task",
        "vote",
        "jobs_used",
        "waves",
        "first_dispatch",
        "submitted_at",
        "done",
    )

    def __init__(self, task: Task, submitted_at: float = 0.0) -> None:
        self.task = task
        self.vote = VoteState()
        self.jobs_used = 0
        self.waves = 0
        self.first_dispatch: Optional[float] = None
        self.submitted_at = submitted_at
        self.done = False


class _Job(Event):
    """A dispatched job, built once its node is acquired: its own event.

    A job is queued as one event at a time -- its completion or its
    deadline, then, if its node left mid-job, the deadline re-queued in
    place, keeping the job's ``seq``.  Its callback is a module function
    that reaches the server through :attr:`server`: a bound method would
    cost an allocation per job, and one kept on the server would tie it
    in a cycle with itself.  A job references its server only while it
    is queued or firing, so a finished job forms no cycle and reference
    counting frees it.
    """

    __slots__ = ("server", "state", "node", "assigned_at", "value")

    def __init__(
        self,
        time: float,
        callback: Callable[["_Job"], None],
        server: "TaskServer",
        state: Optional[_TaskState],
        node: Node,
        assigned_at: float,
        value=None,
    ) -> None:
        # Event's fields without its __init__ frame; seq -1 takes the
        # queue's next number on insert.
        self.time = time
        self.priority = DEFAULT_PRIORITY
        self.seq = -1
        self.callback = callback
        self.payload = None
        self.cancelled = False
        self.fired = False
        self.server = server
        self.state = state  # None for spot-check jobs
        self.node = node
        self.assigned_at = assigned_at
        #: The reported value, kept only when the completion is queued.
        self.value = value


class TaskServer:
    """Drives tasks to verdicts over a node pool.

    Args:
        sim: The discrete-event simulator.
        pool: Node pool to draw workers from.
        strategy: Redundancy strategy shared by all tasks.
        failure_model: What failed jobs report (default: colluding
            Byzantine, the paper's worst case).
        duration_low / duration_high: Uniform nominal job durations.
        timeout: Deadline after which a silent job counts as failed.
        spot_check_rate: Probability an assignment is converted into a
            spot-check; outcomes feed the strategy's credibility manager
            when it exposes one.
        on_all_done: Called once every submitted task has a verdict.

    The server records into the simulator's recorder (see
    :mod:`repro.obs`), read once at construction.  A disabled recorder
    normalizes to ``None``, so every instrumentation site is a single
    ``is not None`` branch when telemetry is off.
    """

    def __init__(
        self,
        sim: Simulator,
        pool: NodePool,
        strategy: RedundancyStrategy,
        *,
        failure_model: Optional[FailureModel] = None,
        duration_low: float = 0.5,
        duration_high: float = 1.5,
        timeout: float = 15.0,
        spot_check_rate: float = 0.0,
        prioritize_followups: bool = True,
        on_all_done: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sim = sim
        self.pool = pool
        self.strategy = strategy
        self.failure_model = failure_model or ByzantineCollusion()
        self.duration_low = duration_low
        self.duration_high = duration_high
        self.timeout = timeout
        self.spot_check_rate = spot_check_rate
        self.on_all_done = on_all_done

        self._node_aware = is_node_aware(strategy)
        self._credibility_manager = getattr(strategy, "manager", None)
        self.prioritize_followups = prioritize_followups
        #: First waves of untouched tasks, one entry per pending job.
        self._queue: Deque[_TaskState] = deque()
        #: Follow-up waves of in-flight tasks.  When
        #: ``prioritize_followups`` is set (the default, matching the
        #: paper's response-time regime where open tasks finish before new
        #: ones start), these are assigned first; otherwise both queues
        #: drain FIFO together.
        self._followup_queue: Deque[_TaskState] = deque()
        self._states: Dict[int, _TaskState] = {}
        self.records: List[TaskRecord] = []
        self.total_jobs_dispatched = 0
        self.jobs_completed = 0
        self.jobs_timed_out = 0
        self.spot_checks_issued = 0
        self._remaining = 0

        # Bound once: the job path calls these without attribute lookups.
        self._rng_select = sim.rng.stream(NODE_SELECTION)
        self._draw_duration = sim.rng.stream(DURATIONS).random
        self._rng_failures = sim.rng.stream(FAILURES)
        self._draw_spot = sim.rng.stream(SPOT_CHECKS).random
        self._report = self.failure_model.report
        self._acquire = pool.acquire_random
        self._release = pool.release
        self._available = pool.available_nodes
        self._insert = sim.queue.insert

        self._recorder = active(sim.recorder)
        self._strategy_label = strategy.describe() if self._recorder is not None else ""
        #: Wave sizes, first and follow-up, kept only while recording:
        #: with the task records they are the run totals of record_totals.
        self._first_waves: List[int] = []
        self._followup_waves: List[int] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def remaining_tasks(self) -> int:
        return self._remaining

    def record_totals(self) -> None:
        """Record the run's job and task telemetry as run totals.

        The job counters (``dca.dispatch``, ``dca.complete``,
        ``dca.timeout``, ``dca.spot_check``), the task counters
        (``dca.accept`` and the labelled ``dca.decisions``) and the task
        histograms (``dca.wave_size{followup}``, ``dca.response_time``,
        ``dca.jobs_per_task``) are tallied as plain integers and lists
        during the run and recorded once, after the run loop, rather
        than once per job or task.  Histogram values go through
        :meth:`~repro.obs.recorder.Recorder.observe_many` in the order
        they arose, so bins and sums equal per-task observes bit for bit.
        A zero total records nothing, so a metric that never fired stays
        absent.  Call it once per run.  It first calls
        :meth:`declare_open_spans`.  A run that raises never gets here and
        records none of these (``dca.submit`` is still per call); the
        code running it calls :meth:`declare_open_spans` alone.
        """
        rec = self._recorder
        if rec is None:
            return
        self.declare_open_spans()
        records = self.records
        for name, total in (
            (DCA_DISPATCHES, self.total_jobs_dispatched),
            (DCA_COMPLETES, self.jobs_completed),
            (DCA_TIMEOUTS, self.jobs_timed_out),
            (DCA_SPOT_CHECKS, self.spot_checks_issued),
            (DCA_ACCEPTS, len(records)),
        ):
            if total:
                rec.count(name, total)
        # One follow-up wave per "extend" decision, one record per accept.
        for outcome, total in (("extend", len(self._followup_waves)), ("accept", len(records))):
            if total:
                rec.count(
                    DCA_DECISIONS,
                    total,
                    labels={"strategy": self._strategy_label, "outcome": outcome},
                )
        rec.observe_many(DCA_WAVE_SIZE, self._first_waves, labels={"followup": False})
        rec.observe_many(DCA_WAVE_SIZE, self._followup_waves, labels={"followup": True})
        rec.observe_many(DCA_RESPONSE_TIME, [record.response_time for record in records])
        rec.observe_many(DCA_JOBS_PER_TASK, [record.jobs_used for record in records])

    def declare_open_spans(self) -> None:
        """Declare to the recorder the spans begun and not yet recorded.

        A span is recorded only when it ends, so the spans still open
        are the jobs in flight and the tasks without a verdict.  Call it
        on every exit from the run loop: drained, at the horizon, or
        raised.
        """
        rec = self._recorder
        if rec is not None:
            in_flight = self.total_jobs_dispatched - self.jobs_completed - self.jobs_timed_out
            rec.declare_open_spans(in_flight + self._remaining)

    def submit(self, task: Task) -> None:
        """Accept a task and enqueue its first wave of jobs."""
        if task.task_id in self._states:
            raise ValueError(f"task {task.task_id} already submitted")
        state = _TaskState(task=task, submitted_at=self.sim.now)
        self._states[task.task_id] = state
        self._remaining += 1
        if self._recorder is not None:
            self._recorder.count(DCA_SUBMITS)
        self._enqueue_jobs(state, self.strategy.initial_jobs())
        state.waves = 1

    def pump(self) -> None:
        """Assign queued jobs to available nodes (call after churn joins).

        Each assignment is one loop iteration, with no call of its own:
        take a node, maybe divert it to a spot-check, draw the job's
        report and duration, and queue the job as its first event.
        """
        available = self._available
        if not available:
            return
        queue = self._queue
        followups = self._followup_queue
        prioritize = self.prioritize_followups
        now = self.sim.now
        timeout = self.timeout
        # Spot-checks divert assignments whenever a rate is set -- with a
        # credibility manager the outcomes feed its reputation tallies;
        # without one they are pure overhead (the DcaConfig contract).
        # The rate gate short-circuits first, so rate-0 runs never touch
        # the spot-check stream.
        spot_rate = self.spot_check_rate
        while available:
            if prioritize and followups:
                state = followups.popleft()
            elif queue:
                state = queue.popleft()
            elif followups:
                state = followups.popleft()
            else:
                break
            if state.done:
                continue
            node = self._acquire(self._rng_select)
            if spot_rate > 0.0 and self._draw_spot() < spot_rate:
                # Divert this node to a spot-check first; the real job
                # goes back to the head of the high-priority queue.
                followups.appendleft(state)
                self.spot_checks_issued += 1
                state = None
                task = _SPOT_CHECK_TASK
            else:
                task = state.task
                if state.first_dispatch is None:
                    state.first_dispatch = now
            self.total_jobs_dispatched += 1
            value = self._report(task, node, self._rng_failures)
            nominal = task.nominal_duration
            if nominal is None:
                # random.uniform's exact arithmetic, without its frame.
                low = self.duration_low
                nominal = low + (self.duration_high - low) * self._draw_duration()
            duration = node.job_duration(nominal)

            # Queue only the event that fires first.  A silent job (value
            # None) never completes, and a completion no earlier than the
            # deadline would lose to it (a tie goes to the deadline, which
            # takes the lower seq): either way the deadline is the job's
            # one event.  Otherwise the completion fires first, and the
            # deadline matters only if the node leaves mid-job; then
            # _complete_fired re-queues the job as its deadline under the
            # completion's seq.  Had both been pushed, deadline first,
            # their seqs would be adjacent, so no other event sorts
            # between the two places: the order is the same.
            completes_at = now + duration
            deadline_at = now + timeout
            if value is None or completes_at >= deadline_at:
                job = _Job(deadline_at, _deadline_fired, self, state, node, now)
            else:
                job = _Job(completes_at, _complete_fired, self, state, node, now, value)
            # Simulator.schedule's guard: NaN fails it as well as the past.
            if not job.time >= now:
                raise schedule_error(job.time, now)
            self._insert(job)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------

    def _enqueue_jobs(self, state: _TaskState, count: int, *, followup: bool = False) -> None:
        if self._recorder is not None:
            (self._followup_waves if followup else self._first_waves).append(count)
        state.vote.dispatched(count)
        target = self._followup_queue if followup else self._queue
        target.extend([state] * count)
        self.pump()

    def _finish_spot_check(self, node: Node, value) -> None:
        if self._credibility_manager is not None:
            passed = value == _SPOT_CHECK_TASK.true_value
            self._credibility_manager.spot_check(node.node_id, passed=passed)

    # ------------------------------------------------------------------
    # Vote bookkeeping
    # ------------------------------------------------------------------

    def _record_timeout(self, job: _Job) -> None:
        """Fold a timed-out job's ``None`` into its vote.

        A completed job's value is folded the same way, inline in
        :func:`_complete_fired`.
        """
        state = job.state
        assert state is not None
        if state.done:
            return
        state.vote.record_value(None)
        state.jobs_used += 1
        if self._node_aware:
            # A timed-out job never reported, so it has no latency.
            self.strategy.record_outcome(
                state.task.task_id, JobOutcome(value=None, node_id=job.node.node_id)
            )
        if state.vote.outstanding == 0:
            self._decide(state)

    def _decide(self, state: _TaskState) -> None:
        decision = self.strategy.decide(state.vote)
        rec = self._recorder
        if not decision.done:
            state.waves += 1
            self._enqueue_jobs(state, decision.more_jobs, followup=True)
            if rec is not None:
                # After the wave enqueues (and possibly assigns), so the
                # new dispatches precede the decide event -- the exact
                # order the legacy monkey-patch tracer produced.
                rec.event(
                    DCA_DECIDE_EVENT,
                    self.sim.now,
                    {"task": state.task.task_id, "outstanding_more": state.vote.outstanding}
                    if rec.keeps_events
                    else None,
                )
            return
        state.done = True
        now = self.sim.now
        record = TaskRecord(
            task_id=state.task.task_id,
            value=decision.accepted,
            correct=decision.accepted == state.task.true_value,
            jobs_used=state.jobs_used,
            waves=state.waves,
            response_time=now - (state.first_dispatch if state.first_dispatch is not None else now),
            turnaround=now - state.submitted_at,
        )
        self.records.append(record)
        if rec is not None:
            rec.span(
                DCA_TASK_SPAN,
                state.task.task_id,
                state.submitted_at,
                now,
                {"task": state.task.task_id, "jobs": state.jobs_used, "waves": state.waves}
                if rec.keeps_spans
                else None,
            )
        # Here, with the span recorded, so declare_open_spans stays exact
        # if task_finished raises.
        self._remaining -= 1
        if self._node_aware:
            self.strategy.task_finished(
                state.task.task_id,
                TaskVerdict(
                    value=decision.accepted,
                    correct=None,  # ground truth is never shown to strategies
                    jobs_used=state.jobs_used,
                    waves=state.waves,
                ),
            )
        if self._remaining == 0 and self.on_all_done is not None:
            self.on_all_done()


#: Ground-truth task used for spot-check jobs: the server knows the answer.
_SPOT_CHECK_TASK = Task(task_id=-1, true_value=True, wrong_value=False)


# The job callbacks: module functions, not methods (see _Job).  They are
# the server's, so they use its private state freely.


def _complete_fired(job: _Job) -> None:
    """A job's completion fired: release the node, fold the value."""
    server = job.server
    node = job.node
    if not node.alive:
        # The node quit mid-job; its result is lost.  The job is
        # re-queued as its deadline, keeping its seq (see pump), which
        # folds the silence into the vote at the time and in the order
        # it would have fired had it been queued all along.
        deadline_at = job.assigned_at + server.timeout
        if not deadline_at >= server.sim.now:
            raise schedule_error(deadline_at, server.sim.now)
        job.time = deadline_at
        job.callback = _deadline_fired
        job.fired = False
        server._insert(job)
        return
    value = job.value
    state = job.state
    rec = server._recorder
    if rec is not None:
        # Before the vote folds in, so the completion precedes any
        # accept it causes (and survives StopSimulation downstream).
        rec.span(
            DCA_JOB_SPAN,
            node.node_id,
            job.assigned_at,
            server.sim.now,
            {
                "task": state.task.task_id if state is not None else -1,
                "node": node.node_id,
                "spot_check": state is None,
                "value": value,
                "outcome": "complete",
            }
            if rec.keeps_spans
            else None,
        )
    server.jobs_completed += 1
    server._release(node)
    if state is None:
        server._finish_spot_check(node, value)
    else:
        node.jobs_completed += 1
        # The vote fold of _record_timeout, inline on the hot path.
        if not state.done:
            vote = state.vote
            vote.record_value(value)
            state.jobs_used += 1
            if server._node_aware:
                server.strategy.record_outcome(
                    state.task.task_id,
                    JobOutcome(
                        value=value,
                        node_id=node.node_id,
                        elapsed=server.sim.now - job.assigned_at,
                    ),
                )
            if vote.outstanding == 0:
                server._decide(state)
    server.pump()


def _deadline_fired(job: _Job) -> None:
    """A job's deadline fired: fold its silence as a timeout."""
    server = job.server
    node = job.node
    rec = server._recorder
    if rec is not None:
        rec.span(
            DCA_JOB_SPAN,
            node.node_id,
            job.assigned_at,
            server.sim.now,
            {
                "task": job.state.task.task_id if job.state is not None else -1,
                "node": node.node_id,
                "spot_check": job.state is None,
                "outcome": "timeout",
            }
            if rec.keeps_spans
            else None,
        )
    server.jobs_timed_out += 1
    node.jobs_failed += 1
    # The node either died or hung; if it is still nominally alive
    # we return it to the pool (it "recovers"), mirroring flaky
    # volunteers that stay registered.
    if node.alive:
        server._release(node)
    if job.state is None:
        if server._credibility_manager is not None:
            server._credibility_manager.spot_check(node.node_id, passed=False)
    else:
        server._record_timeout(job)
    server.pump()
