"""The volunteer-computing work-unit server.

Plays the role of the BOINC server complex (scheduler + transitioner +
validator) with the redundancy strategy plugged into the validation step:

* :meth:`VolunteerServer.request_work` is the scheduler RPC: it hands the
  polling node a job for some work unit that (a) still needs results and
  (b) this node has not already served -- BOINC's one-result-per-node
  rule, which enforces the independence that voting requires;
* :meth:`VolunteerServer.report_result` is the upload + validation path:
  outcomes fold into the work unit's vote and the strategy decides whether
  to accept or replicate further (the transitioner's job);
* deadlines: each assignment carries one; a silent job is folded into the
  vote as a no-response (Section 2.2's "failed") and the strategy's next
  decision naturally re-issues work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.core.strategy import NodeAware, RedundancyStrategy
from repro.core.types import Decision, JobOutcome, ResultValue, TaskVerdict, VoteState
from repro.dca.report import TaskRecord
from repro.sim.engine import Simulator
from repro.sim.events import Event


@dataclass
class WorkUnit:
    """Server-side state for one task.

    Attributes:
        unit_id: Task identifier (unique per deployment).
        payload: Opaque description of the work (e.g. a
            :class:`~repro.sat.decompose.SatTaskSpec`), forwarded to
            clients.
        true_value: Ground truth, used by honest clients that do not
            really compute, and by the harness for scoring.
        wrong_value: The colluding wrong value for this unit.
    """

    unit_id: int
    payload: object = None
    true_value: ResultValue = True
    wrong_value: ResultValue = False
    vote: VoteState = field(default_factory=VoteState)
    served_nodes: Set[int] = field(default_factory=set)
    pending: int = 0
    jobs_used: int = 0
    waves: int = 1
    first_dispatch: Optional[float] = None
    created_at: float = 0.0
    done: bool = False


@dataclass
class JobAssignment:
    """What the scheduler RPC returns to a polling client.

    ``deadline_event`` is dropped once the job ends, so a finished
    assignment and its deadline event form no reference cycle.
    """

    job_id: int
    unit: WorkUnit
    deadline: float
    node_id: int
    deadline_event: Optional[Event] = None
    completed: bool = False


class VolunteerServer:
    """Work distribution and validation for one volunteer deployment.

    Args:
        sim: The simulator (used for the clock and deadline events).
        strategy: Redundancy strategy driving validation.
        deadline: Relative report deadline attached to each assignment.
        value_matcher: Optional canonicaliser for fuzzy results (see
            :mod:`repro.volunteer.homogeneous`); identity by default.
        on_all_done: Called when every submitted unit has a verdict.
    """

    def __init__(
        self,
        sim: Simulator,
        strategy: RedundancyStrategy,
        *,
        deadline: float = 20.0,
        value_matcher: Optional[Callable[[ResultValue], ResultValue]] = None,
        pool_size: Optional[int] = None,
        on_all_done: Optional[Callable[[], None]] = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        if pool_size is not None and pool_size < 1:
            raise ValueError(f"pool size must be positive, got {pool_size}")
        self.sim = sim
        self.strategy = strategy
        self.deadline = deadline
        self.value_matcher = value_matcher or (lambda value: value)
        self.pool_size = pool_size
        self.on_all_done = on_all_done
        #: Assignments that had to reuse a node that already voted on the
        #: unit, because the whole pool was exhausted.  Breaks strict vote
        #: independence, so it is counted and surfaced (the paper's model
        #: assumes the pool is far larger than any single vote).
        self.repeat_assignments = 0

        self._node_aware = isinstance(strategy, NodeAware)
        self._units: Dict[int, WorkUnit] = {}
        #: Units with unassigned pending jobs, in dispatch order.
        self._ready: Deque[int] = deque()
        self._next_job_id = 0
        self.records: List[TaskRecord] = []
        self.assignments_issued = 0
        self.results_received = 0
        self.deadline_misses = 0
        self.requests_denied = 0
        self._remaining = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, unit: WorkUnit) -> None:
        """Register a work unit and queue its first wave."""
        if unit.unit_id in self._units:
            raise ValueError(f"work unit {unit.unit_id} already submitted")
        unit.created_at = self.sim.now
        self._units[unit.unit_id] = unit
        self._remaining += 1
        self._add_pending(unit, self.strategy.initial_jobs())

    @property
    def remaining_units(self) -> int:
        return self._remaining

    @property
    def has_open_work(self) -> bool:
        return self._remaining > 0

    def _add_pending(self, unit: WorkUnit, count: int) -> None:
        unit.pending += count
        unit.vote.dispatched(count)
        if unit.unit_id not in self._ready:
            self._ready.append(unit.unit_id)

    # ------------------------------------------------------------------
    # Scheduler RPC
    # ------------------------------------------------------------------

    def request_work(self, node_id: int) -> Optional[JobAssignment]:
        """Hand ``node_id`` a job, or ``None`` if nothing is eligible.

        Scans ready units in FIFO order, skipping units this node already
        served (one result per node per unit).  A unit whose pending count
        drops to zero leaves the ready queue.
        """
        for _ in range(len(self._ready)):
            unit_id = self._ready[0]
            unit = self._units[unit_id]
            if unit.done or unit.pending <= 0:
                self._ready.popleft()
                continue
            if node_id in unit.served_nodes:
                # Normally ineligible -- but if every node in the pool has
                # already voted on this unit, waiting would starve it
                # forever; fall back to a (counted) repeat assignment.
                exhausted = (
                    self.pool_size is not None
                    and len(unit.served_nodes) >= self.pool_size
                )
                if not exhausted:
                    # Rotate: maybe another unit suits this node.
                    self._ready.rotate(-1)
                    continue
                self.repeat_assignments += 1
            unit.pending -= 1
            if unit.pending == 0:
                self._ready.popleft()
            unit.served_nodes.add(node_id)
            if unit.first_dispatch is None:
                unit.first_dispatch = self.sim.now
            assignment = JobAssignment(
                job_id=self._next_job_id,
                unit=unit,
                deadline=self.sim.now + self.deadline,
                node_id=node_id,
            )
            self._next_job_id += 1
            self.assignments_issued += 1
            assignment.deadline_event = self.sim.schedule_after(
                self.deadline, self._deadline_fired, payload=assignment
            )
            return assignment
        self.requests_denied += 1
        return None

    # ------------------------------------------------------------------
    # Upload + validation
    # ------------------------------------------------------------------

    def report_result(
        self, assignment: JobAssignment, node_id: int, value: ResultValue
    ) -> None:
        """Accept a client's result and run validation."""
        if assignment.completed:
            return  # deadline already voided this job (late result)
        assignment.completed = True
        if assignment.deadline_event is not None:
            self.sim.cancel(assignment.deadline_event)
            assignment.deadline_event = None
        self.results_received += 1
        canonical = self.value_matcher(value)
        self._record(assignment.unit, JobOutcome(value=canonical, node_id=node_id))

    def _deadline_fired(self, event: Event) -> None:
        assignment: JobAssignment = event.payload
        if assignment.completed:
            return
        assignment.completed = True
        assignment.deadline_event = None
        node_id = assignment.node_id
        self.deadline_misses += 1
        unit = assignment.unit
        # The node failed silently and contributed no vote, so its slot on
        # this unit is released: the one-result-per-node rule protects vote
        # independence, and a silent job cast no vote.  (This also prevents
        # small pools from starving a unit of eligible nodes.)
        unit.served_nodes.discard(node_id)
        self._record(unit, JobOutcome(value=None, node_id=node_id))

    def _record(self, unit: WorkUnit, outcome: JobOutcome) -> None:
        if unit.done:
            return
        unit.vote.record(outcome)
        unit.jobs_used += 1
        if self._node_aware:
            self.strategy.record_outcome(unit.unit_id, outcome)
        if unit.vote.outstanding == 0:
            self._transition(unit)

    def _transition(self, unit: WorkUnit) -> None:
        """BOINC's transitioner step: ask the strategy what the unit needs."""
        decision = self.strategy.decide(unit.vote)
        if not decision.done:
            unit.waves += 1
            self._add_pending(unit, decision.more_jobs)
            return
        unit.done = True
        now = self.sim.now
        first = unit.first_dispatch if unit.first_dispatch is not None else now
        self.records.append(
            TaskRecord(
                task_id=unit.unit_id,
                value=decision.accepted,
                correct=decision.accepted == unit.true_value,
                jobs_used=unit.jobs_used,
                waves=unit.waves,
                response_time=now - first,
                turnaround=now - unit.created_at,
            )
        )
        if self._node_aware:
            self.strategy.task_finished(
                unit.unit_id,
                TaskVerdict(
                    value=decision.accepted,
                    correct=None,
                    jobs_used=unit.jobs_used,
                    waves=unit.waves,
                ),
            )
        self._remaining -= 1
        if self._remaining == 0 and self.on_all_done is not None:
            self.on_all_done()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def verdicts(self) -> Dict[int, ResultValue]:
        """Accepted value per finished unit (for recombination)."""
        return {record.task_id: record.value for record in self.records}
