"""Active replication with strategy-driven read quorums.

Classic active replication executes every request on *all* replicas and
takes a majority -- the traditional-redundancy cost profile.  The paper's
observation is that the replica count consulted per request can instead
be decided at runtime: sample a first wave of replicas, and only when
they disagree sample more, until the margin rule is satisfied.  Exactly
the iterative-redundancy loop, with replicas in place of volunteer nodes.

Writes are broadcast to every live replica (keeping state machines in
sync is orthogonal); the redundancy strategy governs the *read* path,
where Byzantine replicas can lie.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.strategy import RedundancyStrategy
from repro.core.types import VoteState
from repro.replication.statemachine import Command, Replica


@dataclass
class ReadReport:
    """Aggregate statistics over a service's reads."""

    reads: int = 0
    correct: int = 0
    replicas_consulted: int = 0
    max_consulted: int = 0

    @property
    def reliability(self) -> float:
        return self.correct / self.reads if self.reads else float("nan")

    @property
    def mean_consulted(self) -> float:
        return self.replicas_consulted / self.reads if self.reads else float("nan")


class ActiveReplicationService:
    """A replica group whose reads are validated by a redundancy strategy.

    Args:
        replicas: The replica group (honest and/or Byzantine).
        strategy: Decides how many replica answers each read needs.
        rng: Randomness for replica sampling (and Byzantine behaviour).

    Reads sample *distinct* replicas per request, wave by wave, until the
    strategy accepts; if the group is smaller than the strategy wants,
    the read settles for the best vote the group can provide (counted in
    :attr:`exhausted_reads`).
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        strategy: RedundancyStrategy,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas = list(replicas)
        self.strategy = strategy
        self.rng = rng or random.Random(0)
        self.report = ReadReport()
        self.exhausted_reads = 0
        self._truth = {}  # ground truth for scoring, maintained on writes

    # ------------------------------------------------------------------
    # Writes: broadcast to all live replicas
    # ------------------------------------------------------------------

    def write(self, key, value) -> None:
        command: Command = ("set", key, value)
        for replica in self.replicas:
            if replica.alive:
                replica.execute(command, self.rng)
        self._truth[key] = value

    # ------------------------------------------------------------------
    # Reads: strategy-driven sampling
    # ------------------------------------------------------------------

    def read(self, key) -> Any:
        """Read ``key`` with as much replication as the vote demands."""
        command: Command = ("get", key)
        candidates = [replica for replica in self.replicas if replica.alive]
        self.rng.shuffle(candidates)
        vote = VoteState()
        consulted = 0
        pending = self.strategy.initial_jobs()
        accepted: Any = None
        decided = False
        while not decided:
            pending = min(pending, len(candidates) - consulted)
            if pending <= 0:
                # Group exhausted: settle for the current leader.
                self.exhausted_reads += 1
                accepted = vote.leader
                break
            vote.dispatched(pending)
            for _ in range(pending):
                replica = candidates[consulted]
                consulted += 1
                value = replica.execute(command, self.rng)
                vote.record_value(value)
            decision = self.strategy.decide(vote)
            if decision.done:
                accepted = decision.accepted
                decided = True
            else:
                pending = decision.more_jobs
        truth = self._truth.get(key)
        self.report.reads += 1
        self.report.replicas_consulted += consulted
        self.report.max_consulted = max(self.report.max_consulted, consulted)
        if accepted == truth:
            self.report.correct += 1
        return accepted

    # ------------------------------------------------------------------
    # Group management
    # ------------------------------------------------------------------

    @property
    def live_count(self) -> int:
        return sum(1 for replica in self.replicas if replica.alive)

    def crash(self, replica_id: int) -> None:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                replica.alive = False
                return
        raise KeyError(replica_id)
