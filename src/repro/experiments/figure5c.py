"""Figure 5(c): cost-factor improvement over traditional redundancy as a
function of node reliability.

The paper's quoted values: progressive redundancy's improvement grows from
~1 near r = 0.5 to 2.0 as r -> 1; iterative redundancy is at least 1.6
even near r = 0.5, peaks around 2.8 at r ~ 0.86, and eases to ~2.4 as
r -> 1.

Methodology (the paper leaves its interpolation implicit; this choice
matches every quoted number -- see EXPERIMENTS.md): fix the vote size k
(19, the paper's running example).  PR achieves exactly TR's reliability,
so its improvement is k / C_PR(r, k).  IR's margin d is tuned
(continuously, via the Equation (6) inverse) so R_IR(r, d) = R_TR(r, k);
its improvement is k / C_IR(r, d).

The optional simulation cross-check measures a few r values empirically
with integer d chosen to match reliability as closely as possible.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import IterativeRedundancy, ProgressiveRedundancy, TraditionalRedundancy
from repro.core import analysis
from repro.experiments.common import (
    ExperimentResult,
    Series,
    SeriesPoint,
    measurement_from_envelopes,
    render_table,
)
from repro.parallel import dca_replicate_specs, run_dca_replicates

DEFAULT_K = 19
DEFAULT_GRID = tuple(round(0.55 + 0.025 * i, 3) for i in range(18))  # 0.55 .. 0.975


def compute(
    r_grid: Sequence[float] = DEFAULT_GRID,
    k: int = DEFAULT_K,
    *,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """The analytic improvement curves.

    ``jobs`` is accepted for CLI uniformity; closed forms have nothing
    to parallelise.
    """
    del jobs
    pr_series = Series("PR improvement")
    ir_series = Series("IR improvement")
    for r in r_grid:
        pr_gain, ir_gain = analysis.improvement_over_traditional(r, k)
        pr_series.add(SeriesPoint(label=f"r={r}", cost=r, reliability=pr_gain))
        ir_series.add(SeriesPoint(label=f"r={r}", cost=r, reliability=ir_gain))
    return ExperimentResult(
        title=f"Figure 5(c): improvement over traditional redundancy (k = {k})",
        series=[pr_series, ir_series],
        notes=[
            "columns: r, improvement factor (C_TR / C_technique at equal reliability)",
            "PR rises toward 2.0 as r -> 1",
            "IR: >= ~1.6 near r = 0.5, peak near r ~ 0.86-0.9, ~2.4 as r -> 1",
        ],
    )


def simulate_check(
    r_values: Sequence[float] = (0.6, 0.7, 0.86),
    k: int = DEFAULT_K,
    *,
    tasks: int = 5_000,
    nodes: int = 500,
    replications: int = 2,
    seed: int = 7,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Empirical spot-check of the improvement ratios at a few r values.

    Every point's replicates run through one replication pool; each point
    keeps the same base ``seed``, so its replicates are the ones a
    per-point run would draw.
    """
    specs = []
    points = []  # (r, d, target, start, stop)
    for r in r_values:
        target = analysis.traditional_reliability(r, k)
        d = max(1, round(analysis.continuous_iterative_margin(r, target)))
        start = len(specs)
        specs.extend(
            dca_replicate_specs(
                lambda d=d: IterativeRedundancy(d),
                tasks=tasks,
                nodes=nodes,
                reliability=r,
                replications=replications,
                seed=seed,
            )
        )
        points.append((r, d, target, start, len(specs)))
    envelopes = run_dca_replicates(specs, jobs=jobs)

    series = Series("simulated IR improvement")
    for r, d, target, start, stop in points:
        measurement = measurement_from_envelopes(envelopes[start:stop])
        series.add(
            SeriesPoint(
                label=f"r={r} (d={d})",
                cost=r,
                reliability=k / measurement.mean_cost,
                extra={
                    "measured_reliability": measurement.mean_reliability,
                    "target_reliability": target,
                },
            )
        )
    return ExperimentResult(
        title=f"Figure 5(c) simulation cross-check (k = {k})",
        series=[series],
        notes=["measured improvement uses integer d matched to R_TR(r, k)"],
    )


def render(result: ExperimentResult) -> str:
    rows: List[List[object]] = []
    names = [series.name for series in result.series]
    if len(result.series) == 2:
        for pr_point, ir_point in zip(result.series[0].points, result.series[1].points):
            rows.append([pr_point.cost, pr_point.reliability, ir_point.reliability])
        return render_table(
            result.title,
            ["r", names[0], names[1]],
            rows,
            result.notes,
        )
    for series in result.series:
        for point in series.points:
            rows.append([series.name, point.label, point.reliability])
    return render_table(result.title, ["series", "point", "improvement"], rows, result.notes)


def run(scale: str = "default", jobs: Optional[int] = 1) -> ExperimentResult:
    """The analytic curves; the same at every scale."""
    return compute()


def main(scale: str = "default", jobs: Optional[int] = 1) -> str:
    """The curves, plus the simulation cross-check above smoke scale."""
    parts = [render(run(scale, jobs=jobs))]
    if scale != "smoke":
        parts.append(render(simulate_check(jobs=jobs)))
    return "\n\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(main("smoke"))
