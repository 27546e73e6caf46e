"""Configuration for DCA simulation runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.distributions import FixedReliability, ReliabilityDistribution
from repro.core.strategy import RedundancyStrategy
from repro.dca.failures import FailureModel
from repro.sim.events import QUEUE_KINDS


@dataclass
class DcaConfig:
    """Everything a DCA simulation run needs.

    Defaults mirror the paper's XDEVS setup (Section 4.1): job completion
    times uniform in [0.5, 1.5] simulated time units and average node
    reliability 0.7.  The paper uses >= 1,000,000 tasks and 10,000 nodes;
    that scale is reachable here too but the experiment harness defaults
    to smaller runs with confidence intervals (see EXPERIMENTS.md).

    Attributes:
        strategy: The redundancy strategy under test (shared across
            tasks; node-aware strategies accumulate reputation state by
            design).
        tasks: Number of independent tasks in the computation.
        nodes: Initial node-pool size.
        reliability: Either a single average node reliability in [0, 1]
            or a :class:`ReliabilityDistribution` for heterogeneous pools
            (Section 5.3).
        duration_low / duration_high: Bounds of the uniform nominal job
            duration, with ``0 < duration_low <= duration_high < inf``.
        seed: Root seed; every subsystem derives its own stream.
        timeout: Job deadline.  ``None`` picks
            ``deadline_factor * duration_high`` (times the slowest speed
            factor seen); jobs silent past the deadline count as failed
            (Section 2.2).  An explicit timeout must exceed the fastest
            possible job, ``duration_low * (1 - speed_spread)``, or every
            job would time out; ``inf`` disables the deadline.
        deadline_factor: Multiplier used when ``timeout`` is ``None``.
        unresponsive_prob: Per-job probability a node goes silent.
        failure_model: How failed jobs report.  ``None`` uses the paper's
            worst case, :class:`~repro.dca.failures.ByzantineCollusion`.
        speed_spread: Node speed factors are drawn uniformly from
            ``[1 - speed_spread, 1 + speed_spread]`` (0 = homogeneous).
        arrival_rate: Poisson rate of new volunteers joining (churn).
        departure_rate: Poisson rate of nodes quitting (churn).
        spot_check_rate: Fraction of assignments diverted to spot-check
            jobs (they consume nodes and count in dispatch/timeout
            totals; with a credibility strategy the outcomes also feed
            its reputation tallies -- pure overhead otherwise).
        max_time: Optional finite, non-negative simulated-time horizon;
            ``None`` runs until the computation completes.
        queue: Event-queue structure for the DES -- ``"heap"`` (default)
            or ``"calendar"`` (amortised O(1) at high event density).
            Results are byte-identical either way; see ``docs/scaling.md``.
    """

    strategy: RedundancyStrategy
    tasks: int = 10_000
    nodes: int = 1_000
    reliability: Union[float, ReliabilityDistribution] = 0.7
    duration_low: float = 0.5
    duration_high: float = 1.5
    seed: int = 0
    timeout: Optional[float] = None
    deadline_factor: float = 10.0
    unresponsive_prob: float = 0.0
    failure_model: Optional[FailureModel] = None
    speed_spread: float = 0.0
    arrival_rate: float = 0.0
    departure_rate: float = 0.0
    spot_check_rate: float = 0.0
    max_time: Optional[float] = None
    queue: str = "heap"

    def __post_init__(self) -> None:
        if self.tasks < 1:
            raise ValueError(f"need at least one task, got {self.tasks}")
        if self.nodes < 1:
            raise ValueError(f"need at least one node, got {self.nodes}")
        # Chained so that NaN fails too.
        if not 0.0 < self.duration_low <= self.duration_high < math.inf:
            raise ValueError(
                f"need 0 < duration_low <= duration_high < inf, got "
                f"[{self.duration_low}, {self.duration_high}]"
            )
        if not 0.0 <= self.unresponsive_prob < 1.0:
            raise ValueError(
                f"unresponsive probability must lie in [0, 1), got {self.unresponsive_prob}"
            )
        if not 0.0 <= self.speed_spread < 1.0:
            raise ValueError(f"speed spread must lie in [0, 1), got {self.speed_spread}")
        for rate in (self.arrival_rate, self.departure_rate):
            # Written so NaN fails too (every comparison with NaN is False).
            if not 0.0 <= rate < math.inf:
                raise ValueError(
                    f"churn rates must be finite and non-negative, got "
                    f"arrival {self.arrival_rate}, departure {self.departure_rate}"
                )
        if not 0.0 <= self.spot_check_rate < 1.0:
            raise ValueError(f"spot-check rate must lie in [0, 1), got {self.spot_check_rate}")
        if self.timeout is not None:
            fastest_job = self.duration_low * (1.0 - self.speed_spread)
            if math.isnan(self.timeout) or self.timeout <= fastest_job:
                raise ValueError(
                    f"timeout must exceed the fastest job duration {fastest_job} "
                    f"(duration_low * (1 - speed_spread)), got {self.timeout}: "
                    "every job would time out"
                )
        if not self.deadline_factor > 1.0:
            raise ValueError(f"deadline factor must exceed 1, got {self.deadline_factor}")
        if self.max_time is not None and not 0.0 <= self.max_time < math.inf:
            # An infinite horizon would end the clock, and the makespan, at inf.
            raise ValueError(
                f"max_time must be a finite non-negative horizon (None runs "
                f"to completion), got {self.max_time}"
            )
        if self.queue not in QUEUE_KINDS:
            raise ValueError(
                f"unknown event queue kind {self.queue!r}; choose from {QUEUE_KINDS}"
            )

    @property
    def reliability_distribution(self) -> ReliabilityDistribution:
        if isinstance(self.reliability, ReliabilityDistribution):
            return self.reliability
        return FixedReliability(float(self.reliability))

    @property
    def effective_timeout(self) -> float:
        if self.timeout is not None:
            return self.timeout
        slowest = 1.0 + self.speed_spread
        return self.deadline_factor * self.duration_high * slowest
