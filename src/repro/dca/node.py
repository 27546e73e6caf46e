"""Worker nodes: reliability, speed, and liveness state.

A node models one volunteer machine.  Its *reliability* is the probability
a job it runs returns the correct result (the failure model decides what a
failed job reports); its *speed factor* scales job durations, modelling
the heterogeneous machines of a real testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Node:
    """One worker in the node pool.

    Attributes:
        node_id: Stable identity (note: a *malicious* node may later
            rejoin the pool with a fresh identity -- whitewashing -- which
            the pool models by creating a new ``Node``).
        reliability: Probability a job on this node yields the correct
            result.
        speed_factor: Multiplier on job durations (1.0 = nominal machine;
            2.0 = half speed).
        unresponsive_prob: Probability a job on this node never reports
            (the node goes silent; the server's deadline catches it).
        alive: False once the node has left the pool.
        busy: True while the node is executing a job.
        slot: The node's index in its pool's available list, or ``-1``
            while it is busy or out of the pool (kept by
            :class:`~repro.dca.pool.NodePool`).
    """

    node_id: int
    reliability: float
    speed_factor: float = 1.0
    unresponsive_prob: float = 0.0
    alive: bool = True
    busy: bool = False
    jobs_completed: int = field(default=0, repr=False)
    jobs_failed: int = field(default=0, repr=False)
    slot: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError(
                f"node reliability must lie in [0, 1], got {self.reliability}"
            )
        if self.speed_factor <= 0:
            raise ValueError(f"speed factor must be positive, got {self.speed_factor}")
        if not 0.0 <= self.unresponsive_prob <= 1.0:
            raise ValueError(
                f"unresponsive probability must lie in [0, 1], got {self.unresponsive_prob}"
            )

    @property
    def available(self) -> bool:
        """Eligible for job assignment right now."""
        return self.alive and not self.busy

    def job_duration(self, base_duration: float) -> float:
        """Wall-clock time this node needs for a job of nominal duration
        ``base_duration``."""
        if base_duration < 0:
            raise ValueError(f"duration must be non-negative, got {base_duration}")
        return base_duration * self.speed_factor
