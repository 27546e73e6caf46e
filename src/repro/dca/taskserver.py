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
from repro.obs.recorder import Recorder, TeeRecorder, active
from repro.sim.engine import Simulator, StopSimulation
from repro.sim.streams import DURATIONS, FAILURES, NODE_SELECTION, SPOT_CHECKS
from repro.sim.events import Event
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


class _Job:
    """A dispatched job, built once its node is acquired.

    It drops both event handles when it ends, so a finished job and its
    events form no cycle and reference counting frees them.
    """

    __slots__ = (
        "state",
        "node",
        "completion_event",
        "deadline_event",
        "abandoned",
        "assigned_at",
        "spot_check",
        "value",
    )

    def __init__(self, state: Optional[_TaskState], node: Node, assigned_at: float) -> None:
        self.state = state  # None for spot-check jobs
        self.node = node
        self.completion_event: Optional[Event] = None
        self.deadline_event: Optional[Event] = None
        self.abandoned = False
        self.assigned_at = assigned_at
        self.spot_check = state is None
        self.value = None


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
        recorder: Telemetry recorder (see :mod:`repro.obs`); defaults to
            the simulator's.  Disabled recorders normalize to ``None``,
            so every instrumentation site is a single ``is not None``
            branch when telemetry is off.
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
        recorder: Optional[Recorder] = None,
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
        self.jobs_timed_out = 0
        self.spot_checks_issued = 0
        self._remaining = 0

        self._rng_select = sim.rng.stream(NODE_SELECTION)
        self._rng_durations = sim.rng.stream(DURATIONS)
        self._rng_failures = sim.rng.stream(FAILURES)
        self._rng_spot = sim.rng.stream(SPOT_CHECKS)

        self._recorder = active(recorder if recorder is not None else sim.recorder)
        self._strategy_label = strategy.describe() if self._recorder is not None else ""

    def attach_recorder(self, recorder: Optional[Recorder]) -> None:
        """Attach ``recorder`` (teeing onto any recorder already set).

        This is how :func:`repro.dca.tracing.instrument_server` hooks a
        legacy :class:`~repro.dca.tracing.TraceLog` onto the unified
        telemetry stream after construction.
        """
        recorder = active(recorder)
        if recorder is None:
            return
        if self._recorder is None:
            self._recorder = recorder
        else:
            self._recorder = TeeRecorder(self._recorder, recorder)
        self._strategy_label = self.strategy.describe()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def remaining_tasks(self) -> int:
        return self._remaining

    def submit(self, task: Task) -> None:
        """Accept a task and enqueue its first wave of jobs."""
        if task.task_id in self._states:
            raise ValueError(f"task {task.task_id} already submitted")
        state = _TaskState(task=task, submitted_at=self.sim.now)
        self._states[task.task_id] = state
        self._remaining += 1
        rec = self._recorder
        if rec is not None:
            # Before the first wave enqueues, so submit precedes its
            # dispatches in the stream (matching the legacy trace order).
            rec.span_begin(DCA_TASK_SPAN, task.task_id, self.sim.now, {"task": task.task_id})
            rec.count(DCA_SUBMITS)
        self._enqueue_jobs(state, self.strategy.initial_jobs())
        state.waves = 1

    def pump(self) -> None:
        """Assign queued jobs to available nodes (call after churn joins)."""
        pool = self.pool
        queue = self._queue
        followups = self._followup_queue
        prioritize = self.prioritize_followups
        while pool.available_count > 0:
            if prioritize and followups:
                state = followups.popleft()
            elif queue:
                state = queue.popleft()
            elif followups:
                state = followups.popleft()
            else:
                break
            if not state.done:
                self._assign(state)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------

    def _enqueue_jobs(self, state: _TaskState, count: int, *, followup: bool = False) -> None:
        rec = self._recorder
        if rec is not None:
            rec.observe(DCA_WAVE_SIZE, count, labels={"followup": followup})
        state.vote.dispatched(count)
        target = self._followup_queue if followup else self._queue
        target.extend([state] * count)
        self.pump()

    def _maybe_spot_check(self) -> bool:
        # Spot-checks divert assignments whenever a rate is set -- with a
        # credibility manager the outcomes feed its reputation tallies;
        # without one they are pure overhead (the DcaConfig contract).
        # The rate gate short-circuits first, so rate-0 runs never touch
        # the spot-check stream.
        return self.spot_check_rate > 0.0 and self._rng_spot.random() < self.spot_check_rate

    def _assign(self, state: _TaskState) -> None:
        node = self.pool.acquire_random(self._rng_select)
        if node is None:  # raced with a departure; requeue at the front
            self._followup_queue.appendleft(state)
            return
        if self._maybe_spot_check():
            # Divert this node to a spot-check first; the real job goes
            # back to the head of the high-priority queue.
            self._followup_queue.appendleft(state)
            state = None
            self.spot_checks_issued += 1
        sim = self.sim
        now = sim.now
        job = _Job(state, node, now)
        self.total_jobs_dispatched += 1
        if state is not None and state.first_dispatch is None:
            state.first_dispatch = now
        rec = self._recorder
        if rec is not None:
            rec.span_begin(
                DCA_JOB_SPAN,
                node.node_id,
                now,
                {
                    "task": state.task.task_id if state is not None else -1,
                    "node": node.node_id,
                    "spot_check": job.spot_check,
                },
            )
            rec.count(DCA_DISPATCHES)
            if job.spot_check:
                rec.count(DCA_SPOT_CHECKS)

        task = state.task if state is not None else _SPOT_CHECK_TASK
        value = self.failure_model.report(task, node, self._rng_failures)
        nominal = task.nominal_duration
        if nominal is None:
            nominal = self._rng_durations.uniform(self.duration_low, self.duration_high)
        duration = node.job_duration(nominal)

        schedule_after = sim.schedule_after
        job.deadline_event = schedule_after(self.timeout, self._deadline_fired, payload=job)
        if value is not None:
            job.value = value
            job.completion_event = schedule_after(duration, self._complete_fired, payload=job)
        # A silent job (value None) schedules no completion: only the
        # deadline will fire, exactly like a node that never reports.

    def _complete_fired(self, event: Event) -> None:
        job: _Job = event.payload
        if job.abandoned:
            return
        node = job.node
        if not node.alive:
            # The node quit mid-job; its result is lost.  The deadline
            # event will fold the silence into the vote.
            return
        value = job.value
        rec = self._recorder
        if rec is not None:
            # Before the vote folds in, so the completion precedes any
            # accept it causes (and survives StopSimulation downstream).
            rec.span_end(
                DCA_JOB_SPAN,
                node.node_id,
                self.sim.now,
                {
                    "task": job.state.task.task_id if job.state is not None else -1,
                    "node": node.node_id,
                    "value": value,
                    "outcome": "complete",
                },
            )
            rec.count(DCA_COMPLETES)
        job.abandoned = True
        if job.deadline_event is not None:
            self.sim.cancel(job.deadline_event)
        job.deadline_event = job.completion_event = None
        self.pool.release(node)
        if job.spot_check:
            self._finish_spot_check(node, value)
        else:
            node.jobs_completed += 1
            self._record_outcome(
                job.state,
                JobOutcome(
                    value=value,
                    node_id=node.node_id,
                    elapsed=self.sim.now - job.assigned_at,
                ),
            )
        self.pump()

    def _deadline_fired(self, event: Event) -> None:
        job: _Job = event.payload
        if job.abandoned:
            return
        node = job.node
        rec = self._recorder
        if rec is not None:
            rec.span_end(
                DCA_JOB_SPAN,
                node.node_id,
                self.sim.now,
                {
                    "task": job.state.task.task_id if job.state is not None else -1,
                    "node": node.node_id,
                    "outcome": "timeout",
                },
            )
            rec.count(DCA_TIMEOUTS)
        job.abandoned = True
        if job.completion_event is not None:
            self.sim.cancel(job.completion_event)
        job.deadline_event = job.completion_event = None
        self.jobs_timed_out += 1
        node.jobs_failed += 1
        # The node either died or hung; if it is still nominally alive
        # we return it to the pool (it "recovers"), mirroring flaky
        # volunteers that stay registered.
        if node.alive:
            self.pool.release(node)
        if job.spot_check:
            if self._credibility_manager is not None:
                self._credibility_manager.spot_check(node.node_id, passed=False)
        else:
            self._record_outcome(job.state, JobOutcome(value=None, node_id=node.node_id))
        self.pump()

    def _finish_spot_check(self, node: Node, value) -> None:
        if self._credibility_manager is not None:
            passed = value == _SPOT_CHECK_TASK.true_value
            self._credibility_manager.spot_check(node.node_id, passed=passed)

    # ------------------------------------------------------------------
    # Vote bookkeeping
    # ------------------------------------------------------------------

    def _record_outcome(self, state: Optional[_TaskState], outcome: JobOutcome) -> None:
        assert state is not None
        if state.done:
            return
        state.vote.record(outcome)
        state.jobs_used += 1
        if self._node_aware:
            self.strategy.record_outcome(state.task.task_id, outcome)
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
                    {"task": state.task.task_id, "outstanding_more": state.vote.outstanding},
                )
                rec.count(
                    DCA_DECISIONS,
                    labels={"strategy": self._strategy_label, "outcome": "extend"},
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
            rec.span_end(
                DCA_TASK_SPAN,
                state.task.task_id,
                now,
                {"task": state.task.task_id, "jobs": state.jobs_used, "waves": state.waves},
            )
            rec.count(DCA_ACCEPTS)
            rec.count(
                DCA_DECISIONS,
                labels={"strategy": self._strategy_label, "outcome": "accept"},
            )
            rec.observe(DCA_RESPONSE_TIME, record.response_time)
            rec.observe(DCA_JOBS_PER_TASK, state.jobs_used)
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
        self._remaining -= 1
        if self._remaining == 0 and self.on_all_done is not None:
            self.on_all_done()


#: Ground-truth task used for spot-check jobs: the server knows the answer.
_SPOT_CHECK_TASK = Task(task_id=-1, true_value=True, wrong_value=False)
