"""Tasks and workloads for the DCA model.

The paper's analysis works with binary tasks (assumption 4): every job
reports one of two values, and Byzantine failures all report the single
wrong one.  A :class:`Task` carries its ground-truth value (known to the
evaluation harness only, never to strategies) and the workload generates a
stream of such tasks.  Section 5.3's non-binary relaxation is modelled by
the failure model, which may invent distinct wrong values per job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.core.types import ResultValue


@dataclass(frozen=True)
class Task:
    """One independently executable piece of the computation.

    Attributes:
        task_id: Stable identifier.
        true_value: The correct result (ground truth for scoring).
        wrong_value: The value colluding Byzantine nodes agree to report
            for this task (the binary worst case).
        nominal_duration: Optional fixed nominal job duration, finite and
            non-negative; ``None`` means the simulation draws from its
            duration distribution.
    """

    task_id: int
    true_value: ResultValue = True
    wrong_value: ResultValue = False
    nominal_duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.true_value == self.wrong_value:
            raise ValueError("true and wrong values must differ")
        nominal = self.nominal_duration
        if nominal is not None and not (math.isfinite(nominal) and nominal >= 0):
            raise ValueError(
                f"nominal duration must be finite and non-negative, got {nominal}"
            )


class Workload:
    """A finite stream of independent binary tasks."""

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"workload needs at least one task, got {count}")
        self.count = count

    def tasks(self) -> Iterator[Task]:
        for task_id in range(self.count):
            yield Task(task_id=task_id)

    def __len__(self) -> int:
        return self.count
