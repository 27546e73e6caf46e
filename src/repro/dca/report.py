"""Per-task records, run-level aggregation, and JSON persistence.

Mirrors the measures the paper records for every run (Section 4.1): the
simulated time to complete the computation, the total number of jobs
generated, the average and maximum jobs per task, the number of tasks that
achieved a correct result, and the average and maximum response time per
task.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.types import ResultValue


def _set_as_list(value):
    """``json.dumps`` fallback: a set's members as a list sorted by ``repr``."""
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass(frozen=True)
class TaskRecord:
    """The final record of one task's execution."""

    task_id: int
    value: ResultValue
    correct: bool
    jobs_used: int
    waves: int
    response_time: float
    turnaround: float


@dataclass
class DcaReport:
    """Aggregated results of one simulation run."""

    strategy: str
    tasks_submitted: int
    records: List[TaskRecord] = field(default_factory=list)
    makespan: float = 0.0
    total_jobs_dispatched: int = 0
    jobs_timed_out: int = 0
    spot_checks: int = 0
    nodes_joined: int = 0
    nodes_departed: int = 0
    seed: int = 0

    # ------------------------------------------------------------------
    # The paper's Section 4.1 measures
    # ------------------------------------------------------------------

    @property
    def tasks_completed(self) -> int:
        return len(self.records)

    @property
    def tasks_correct(self) -> int:
        """'The number of tasks that achieved a correct result.'"""
        return sum(1 for record in self.records if record.correct)

    @property
    def system_reliability(self) -> float:
        """Fraction of completed tasks with the correct result."""
        if not self.records:
            return math.nan
        return self.tasks_correct / len(self.records)

    @property
    def total_jobs(self) -> int:
        """'The total number of jobs generated' (counted per task)."""
        return sum(record.jobs_used for record in self.records)

    @property
    def cost_factor(self) -> float:
        """'The average number of jobs per task generated.'"""
        if not self.records:
            return math.nan
        return self.total_jobs / len(self.records)

    @property
    def max_jobs_per_task(self) -> int:
        """'The maximum number of jobs generated for any single task.'"""
        if not self.records:
            return 0
        return max(record.jobs_used for record in self.records)

    @property
    def mean_response_time(self) -> float:
        """'The average response time per task.'"""
        if not self.records:
            return math.nan
        return sum(record.response_time for record in self.records) / len(self.records)

    @property
    def max_response_time(self) -> float:
        """'The maximum response time for any task.'"""
        if not self.records:
            return math.nan
        return max(record.response_time for record in self.records)

    @property
    def mean_waves(self) -> float:
        if not self.records:
            return math.nan
        return sum(record.waves for record in self.records) / len(self.records)

    def reliability_confidence_interval(self, z: float = 1.96) -> tuple:
        """Normal-approximation CI on the system reliability."""
        n = len(self.records)
        if n < 2:
            return (math.nan, math.nan)
        p = self.system_reliability
        half = z * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
        return (max(0.0, p - half), min(1.0, p + half))

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """The Section 4.1 record block, ready to print."""
        lines = [
            f"strategy                {self.strategy}",
            f"tasks completed         {self.tasks_completed} / {self.tasks_submitted}",
            f"time to complete        {self.makespan:.2f}",
            f"total jobs              {self.total_jobs}",
            f"avg jobs per task       {self.cost_factor:.3f}",
            f"max jobs for any task   {self.max_jobs_per_task}",
            f"tasks correct           {self.tasks_correct}"
            f"  (system reliability {self.system_reliability:.4f})",
            f"avg response time       {self.mean_response_time:.3f}",
            f"max response time       {self.max_response_time:.3f}",
        ]
        if self.jobs_timed_out:
            lines.append(f"jobs timed out          {self.jobs_timed_out}")
        if self.spot_checks:
            lines.append(f"spot checks issued      {self.spot_checks}")
        if self.nodes_joined or self.nodes_departed:
            lines.append(
                f"churn                   +{self.nodes_joined} / -{self.nodes_departed}"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for tables and serialisation."""
        return {
            "strategy": self.strategy,
            "tasks": self.tasks_completed,
            "reliability": self.system_reliability,
            "cost_factor": self.cost_factor,
            "max_jobs": self.max_jobs_per_task,
            "mean_response_time": self.mean_response_time,
            "max_response_time": self.max_response_time,
            "mean_waves": self.mean_waves,
            "makespan": self.makespan,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_json(self, *, include_records: bool = True) -> str:
        """Serialise the full report (optionally without per-task records).

        Result values are JSON-encoded as-is, except that a set or
        frozenset (a MapReduce job's set-valued map output) becomes a list
        of its members sorted by ``repr``, so the text never follows
        string-hash order.  Other values that are not JSON-representable
        raise :class:`TypeError`.
        """
        payload = {
            "strategy": self.strategy,
            "tasks_submitted": self.tasks_submitted,
            "makespan": self.makespan,
            "total_jobs_dispatched": self.total_jobs_dispatched,
            "jobs_timed_out": self.jobs_timed_out,
            "spot_checks": self.spot_checks,
            "nodes_joined": self.nodes_joined,
            "nodes_departed": self.nodes_departed,
            "seed": self.seed,
            "records": [asdict(record) for record in self.records]
            if include_records
            else [],
        }
        return json.dumps(payload, sort_keys=True, default=_set_as_list)

    @classmethod
    def from_json(cls, text: str) -> "DcaReport":
        """Reconstruct a report serialised by :meth:`to_json`.

        JSON has no set: a set-valued result comes back as the sorted
        list :meth:`to_json` wrote, and a tuple as a list.
        """
        payload = json.loads(text)
        records = [TaskRecord(**record) for record in payload.pop("records")]
        return cls(records=records, **payload)
