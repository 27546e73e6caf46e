"""Credibility-based fault tolerance (Sarmenta 2002) -- a comparator.

Sections 5.1 and 6 of the paper contrast iterative redundancy with
credibility-based fault tolerance: a volunteer-computing defence that
estimates each node's reliability from *spot-checks* (jobs whose answer
the server already knows), combines per-node credibilities into a
conditional probability that a result group is correct, and blacklists
nodes caught cheating.  Its weaknesses, which the ablation experiments
reproduce:

* spot-check jobs are pure overhead (they compute nothing new),
* estimating credibility requires storing per-node history,
* malicious nodes can *earn* credibility and then defect, and
* blacklisted nodes can return under a fresh identity (whitewashing),
  resetting their credibility to that of a new volunteer.

The implementation follows Sarmenta's credibility definitions in
simplified form: a node that has survived ``s`` spot-checks without being
caught, under an assumed population fault fraction ``f``, has credibility

    Cr(node) = 1 - f / (s + 1)

(the more checks survived, the likelier the node is honest), and a result
group's credibility is the Bayesian combination of its supporters' and
dissenters' credibilities, structurally the heterogeneous version of the
paper's q(r, a, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.core.strategy import RedundancyStrategy
from repro.core.types import Decision, JobOutcome, ResultValue, TaskVerdict, VoteState


@dataclass
class NodeRecord:
    """Per-node reputation state kept by the credibility manager."""

    spot_checks_passed: int = 0
    results_reported: int = 0
    blacklisted: bool = False


class CredibilityManager:
    """Tracks spot-check history and computes node/result credibilities.

    Args:
        assumed_fault_fraction: Sarmenta's ``f`` -- the presumed fraction
            of faulty nodes in the population; bounds how much trust a
            brand-new node gets (Cr = 1 - f).
    """

    def __init__(self, assumed_fault_fraction: float = 0.3) -> None:
        if not 0.0 < assumed_fault_fraction < 1.0:
            raise ValueError("assumed fault fraction must lie in (0, 1)")
        self.assumed_fault_fraction = assumed_fault_fraction
        self._nodes: Dict[int, NodeRecord] = {}
        self.spot_checks_issued = 0
        self.blacklist_events = 0

    # ------------------------------------------------------------------
    # Reputation bookkeeping
    # ------------------------------------------------------------------

    def record(self, node_id: int) -> NodeRecord:
        record = self._nodes.get(node_id)
        if record is None:
            record = NodeRecord()
            self._nodes[node_id] = record
        return record

    def node_credibility(self, node_id: Optional[int]) -> float:
        """Cr(node) = 1 - f / (s + 1); blacklisted nodes get 0.5 (a coin
        flip: their answers carry no information)."""
        if node_id is None:
            return 1.0 - self.assumed_fault_fraction
        record = self.record(node_id)
        if record.blacklisted:
            return 0.5
        return 1.0 - self.assumed_fault_fraction / (record.spot_checks_passed + 1)

    def spot_check(self, node_id: int, *, passed: bool) -> None:
        """Record a spot-check outcome for ``node_id``."""
        self.spot_checks_issued += 1
        record = self.record(node_id)
        if passed:
            record.spot_checks_passed += 1
        else:
            if not record.blacklisted:
                self.blacklist_events += 1
            record.blacklisted = True

    def forget(self, node_id: int) -> None:
        """The node left (or *whitewashed*: rejoined under a new id)."""
        self._nodes.pop(node_id, None)

    def is_blacklisted(self, node_id: int) -> bool:
        return self.record(node_id).blacklisted

    # ------------------------------------------------------------------
    # Result-group credibility
    # ------------------------------------------------------------------

    def group_credibility(
        self,
        supporters: Iterable[Optional[int]],
        dissenters: Iterable[Optional[int]],
    ) -> float:
        """Probability the supporters' common result is correct.

        Heterogeneous Bayesian vote: with per-node credibilities ``c_i``,

            P = prod_A c_i * prod_B (1-c_j)
                / (that + prod_A (1-c_i) * prod_B c_j)

        which reduces to the paper's q(r, a, b) when all credibilities
        equal ``r``.  Computed in log space.
        """
        log_support = 0.0
        log_oppose = 0.0
        for node_id in supporters:
            c = _clamp(self.node_credibility(node_id))
            log_support += math.log(c)
            log_oppose += math.log1p(-c)
        for node_id in dissenters:
            c = _clamp(self.node_credibility(node_id))
            log_support += math.log1p(-c)
            log_oppose += math.log(c)
        # P = 1 / (1 + exp(log_oppose - log_support))
        diff = log_oppose - log_support
        if diff > 700:
            return math.exp(-diff)
        return 1.0 / (1.0 + math.exp(diff))


def _clamp(p: float, eps: float = 1e-9) -> float:
    return min(1.0 - eps, max(eps, p))


class CredibilityStrategy(RedundancyStrategy):
    """Validation policy: accept once the majority group's credibility
    (computed from per-node reputations) reaches the target.

    Implements the :class:`~repro.core.strategy.NodeAware` protocol: the
    substrate must attach node ids to outcomes.  Unlike iterative
    redundancy, the decision depends on *who* voted, so the strategy keeps
    a per-task map of supporters/dissenters.

    Spot checks, the only thing that raises a node's credibility, come
    from the substrate: a DES run issues them at
    ``DcaConfig.spot_check_rate`` (default 0).  Without them every node
    keeps the fresh-node credibility ``1 - f``.
    """

    def __init__(
        self,
        manager: CredibilityManager,
        target: float = 0.99,
        *,
        max_group: int = 64,
    ) -> None:
        if not 0.5 < target < 1.0:
            raise ValueError(f"target must lie in (0.5, 1), got {target}")
        self.manager = manager
        self.target = target
        self.max_group = max_group
        self._task_votes: Dict[int, Dict[ResultValue, list]] = {}
        self._current_task: Optional[int] = None
        self.name = f"credibility(R={target})"

    # -- NodeAware protocol -------------------------------------------------

    def record_outcome(self, task_id: int, outcome: JobOutcome) -> None:
        if outcome.value is None:
            return
        votes = self._task_votes.setdefault(task_id, {})
        votes.setdefault(outcome.value, []).append(outcome.node_id)
        self._current_task = task_id
        node_id = outcome.node_id
        if node_id is not None:
            self.manager.record(node_id).results_reported += 1

    def task_finished(self, task_id: int, verdict: TaskVerdict) -> None:
        self._task_votes.pop(task_id, None)

    # -- RedundancyStrategy -------------------------------------------------

    def initial_jobs(self) -> int:
        return 1

    def decide(self, vote: VoteState) -> Decision:
        task_id = self._current_task
        votes = self._task_votes.get(task_id, {}) if task_id is not None else {}
        if not votes:
            return Decision.dispatch(1)
        # Rank groups by combined credibility against all others.
        best_value = None
        best_credibility = -1.0
        for value, supporters in votes.items():
            dissenters = [
                node
                for other, nodes in votes.items()
                if other != value
                for node in nodes
            ]
            credibility = self.manager.group_credibility(supporters, dissenters)
            if credibility > best_credibility:
                best_credibility = credibility
                best_value = value
        if best_credibility >= self.target:
            return Decision.accept(best_value)
        if vote.total_completed >= self.max_group:
            # Reputation estimates cannot reach the target (e.g. heavy
            # whitewashing keeps every credibility low); cut losses.
            return Decision.accept(best_value)
        return Decision.dispatch(1)

    def describe(self) -> str:
        return self.name
