"""Substrate-free strategy execution: run a strategy against a result
source and observe its verdict, job count, and wave count.

This is the lightest of the three substrates (the others are the DES DCA
model and the volunteer substrate): no clock, no nodes, just the decision
loop.  It powers Monte-Carlo estimates of cost and reliability that
cross-check the closed forms, plus the strategy unit tests, which feed
deterministic result streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.core.strategy import RedundancyStrategy, is_node_aware
from repro.core.types import JobOutcome, ResultValue, TaskVerdict, VoteState

#: Produces one job's outcome; receives the 0-based global job index.
ResultSource = Callable[[int], JobOutcome]


class WaveLimitExceeded(RuntimeError):
    """The strategy kept dispatching past the configured safety limit."""


def run_task(
    strategy: RedundancyStrategy,
    source: ResultSource,
    *,
    true_value: Optional[ResultValue] = None,
    task_id: int = 0,
    max_waves: int = 10_000,
) -> TaskVerdict:
    """Drive ``strategy`` to a verdict for one task.

    Args:
        strategy: The redundancy strategy to execute.
        source: Called once per job with the running job index; returns the
            job's outcome.  Use :func:`bernoulli_source` for the paper's
            binary model.
        true_value: Ground truth, used only to mark the verdict's
            ``correct`` field (``None`` leaves it unknown).
        task_id: Identifier passed to node-aware strategies.
        max_waves: Safety valve, at least 1; iterative redundancy is
            unbounded in principle, so runaway loops raise
            :class:`WaveLimitExceeded` instead of spinning.

    Returns:
        The accepted :class:`TaskVerdict`.
    """
    if max_waves < 1:
        raise ValueError(f"max_waves must be at least 1, got {max_waves}")
    vote = VoteState()
    node_aware = is_node_aware(strategy)
    record = vote.record
    decide = strategy.decide
    jobs_used = 0
    waves = 0
    pending = strategy.initial_jobs()
    while True:
        if waves >= max_waves:
            raise WaveLimitExceeded(
                f"{strategy.describe()} exceeded {max_waves} waves"
            )
        waves += 1
        vote.dispatched(pending)
        for _ in range(pending):
            outcome = source(jobs_used)
            jobs_used += 1
            record(outcome)
            if node_aware:
                strategy.record_outcome(task_id, outcome)
        decision = decide(vote)
        if decision.done:
            verdict = TaskVerdict(
                value=decision.accepted,
                correct=None if true_value is None else decision.accepted == true_value,
                jobs_used=jobs_used,
                waves=waves,
            )
            if node_aware:
                strategy.task_finished(task_id, verdict)
            return verdict
        pending = decision.more_jobs


def bernoulli_source(
    rng: random.Random,
    r: float,
    *,
    correct: ResultValue = True,
    wrong: ResultValue = False,
) -> ResultSource:
    """The paper's binary worst case: each job is correct with probability
    ``r``, otherwise reports the single colluding wrong value."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"reliability must lie in [0, 1], got {r}")
    draw = rng.random

    def source(index: int) -> JobOutcome:
        value = correct if draw() < r else wrong
        return JobOutcome(value=value, node_id=index)

    return source


def scripted_source(values: Sequence[Optional[ResultValue]]) -> ResultSource:
    """Deterministic source replaying ``values`` in order (tests)."""

    def source(index: int) -> JobOutcome:
        if index >= len(values):
            raise IndexError(
                f"strategy requested job {index} but the script has only "
                f"{len(values)} results"
            )
        return JobOutcome(value=values[index], node_id=index)

    return source


@dataclass
class MonteCarloEstimate:
    """Aggregate of many :func:`run_task` replications."""

    tasks: int
    correct: int
    total_jobs: int
    total_waves: int
    max_jobs: int

    @property
    def reliability(self) -> float:
        return self.correct / self.tasks

    @property
    def cost_factor(self) -> float:
        return self.total_jobs / self.tasks

    @property
    def mean_waves(self) -> float:
        return self.total_waves / self.tasks


def monte_carlo(
    strategy_factory: Callable[[], RedundancyStrategy],
    r: float,
    tasks: int,
    *,
    seed: int = 0,
) -> MonteCarloEstimate:
    """Estimate reliability and cost factor by direct replication.

    A fresh strategy instance is built per run (via ``strategy_factory``)
    so node-aware strategies cannot leak reputation state between
    independent estimates.
    """
    if tasks < 1:
        raise ValueError(f"need at least one task, got {tasks}")
    rng = random.Random(seed)
    strategy = strategy_factory()
    correct = 0
    total_jobs = 0
    total_waves = 0
    max_jobs = 0
    for task_id in range(tasks):
        verdict = run_task(
            strategy,
            bernoulli_source(rng, r),
            true_value=True,
            task_id=task_id,
        )
        correct += 1 if verdict.correct else 0
        total_jobs += verdict.jobs_used
        total_waves += verdict.waves
        max_jobs = max(max_jobs, verdict.jobs_used)
    return MonteCarloEstimate(
        tasks=tasks,
        correct=correct,
        total_jobs=total_jobs,
        total_waves=total_waves,
        max_jobs=max_jobs,
    )
