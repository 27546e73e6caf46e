"""Figure 3: analytic system reliability vs cost factor (r = 0.7).

The paper plots, for node reliability 0.7, the reliability each technique
achieves as a function of its cost factor: traditional redundancy at
k = 3, 5, ..., progressive redundancy at the same k (but lower cost), and
iterative redundancy at d = 1, 2, ... .  At any cost, IR > PR > TR.

This module evaluates Equations (1)-(6) directly; Figure 5(a) re-derives
the same curves from the discrete-event simulation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import analysis
from repro.experiments.common import ExperimentResult, Series, SeriesPoint, render_table

DEFAULT_R = 0.7
DEFAULT_KS = tuple(range(3, 21, 2))
DEFAULT_DS = tuple(range(1, 9))


def compute(
    r: float = DEFAULT_R,
    ks: Sequence[int] = DEFAULT_KS,
    ds: Sequence[int] = DEFAULT_DS,
    *,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Evaluate the three closed-form curves.

    ``jobs`` is accepted for CLI uniformity; closed forms have nothing
    to parallelise, so results are trivially identical for any value.
    """
    del jobs
    traditional = Series("TR")
    for k in ks:
        traditional.add(
            SeriesPoint(
                label=f"k={k}",
                cost=analysis.traditional_cost(k),
                reliability=analysis.traditional_reliability(r, k),
            )
        )
    progressive = Series("PR")
    for k in ks:
        progressive.add(
            SeriesPoint(
                label=f"k={k}",
                cost=analysis.progressive_cost(r, k),
                reliability=analysis.progressive_reliability(r, k),
            )
        )
    iterative = Series("IR")
    for d in ds:
        iterative.add(
            SeriesPoint(
                label=f"d={d}",
                cost=analysis.iterative_cost(r, d),
                reliability=analysis.iterative_reliability(r, d),
            )
        )
    return ExperimentResult(
        title=f"Figure 3: analytic reliability vs cost factor (r = {r})",
        series=[traditional, progressive, iterative],
        notes=[
            "reliability approaches 1 exponentially as cost grows linearly",
            "at equal cost: IR > PR > TR (the paper's headline ordering)",
        ],
    )


def render(result: ExperimentResult) -> str:
    rows: List[List[object]] = []
    for series in result.series:
        for point in series.points:
            rows.append([series.name, point.label, point.cost, point.reliability])
    return render_table(
        result.title,
        ["technique", "param", "cost factor", "system reliability"],
        rows,
        result.notes,
    )


def run(
    scale: str = "default",
    r: float = DEFAULT_R,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Scale and jobs are irrelevant for closed forms; accepted for CLI
    uniformity."""
    return compute(r=r)


def main(
    scale: str = "default",
    r: float = DEFAULT_R,
    jobs: Optional[int] = None,
) -> str:
    return render(run(scale, r=r, jobs=jobs))


if __name__ == "__main__":  # pragma: no cover
    print(main())
