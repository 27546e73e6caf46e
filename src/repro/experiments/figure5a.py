"""Figure 5(a): simulated reliability vs cost factor (the XDEVS study).

The paper ran XDEVS discrete-event simulations (>= 10^6 tasks, 10^4
nodes, durations U(0.5, 1.5), r = 0.7) and showed the measured
(cost, reliability) points agreeing with the analytic predictions, with
iterative redundancy dominating.  This harness reruns that study on our
DES substrate, with replication-based error bars, and prints the analytic
prediction next to every measured point.

At the default scale each point aggregates 3 x 10,000 tasks on 1,000
nodes; ``--scale full`` uses 100,000 tasks on 10,000 nodes per
replication (the paper's node count; task count is a documented
substitution -- see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import IterativeRedundancy, ProgressiveRedundancy, TraditionalRedundancy
from repro.core import analysis
from repro.experiments.common import (
    SCALES,
    ExperimentResult,
    Series,
    SeriesPoint,
    measurement_from_envelopes,
    render_table,
)
from repro.parallel import dca_replicate_specs, run_dca_replicates

DEFAULT_R = 0.7
DEFAULT_KS = (3, 7, 11, 15, 19)
DEFAULT_DS = (1, 2, 3, 4, 5, 6)


def compute(
    r: float = DEFAULT_R,
    ks: Sequence[int] = DEFAULT_KS,
    ds: Sequence[int] = DEFAULT_DS,
    *,
    tasks: int = 10_000,
    nodes: int = 1_000,
    replications: int = 3,
    seed: int = 1,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Measure each technique's (cost, reliability) by simulation.

    The whole sweep -- every (technique, parameter) point times every
    replication -- is one flat spec list fanned out through the parallel
    replication engine; results are identical for any ``jobs`` value.
    """
    sweeps = [
        ("TR", [(f"k={k}", lambda k=k: TraditionalRedundancy(k)) for k in ks],
         [(analysis.traditional_cost(k), analysis.traditional_reliability(r, k)) for k in ks]),
        ("PR", [(f"k={k}", lambda k=k: ProgressiveRedundancy(k)) for k in ks],
         [(analysis.progressive_cost(r, k), analysis.progressive_reliability(r, k)) for k in ks]),
        ("IR", [(f"d={d}", lambda d=d: IterativeRedundancy(d)) for d in ds],
         [(analysis.iterative_cost(r, d), analysis.iterative_reliability(r, d)) for d in ds]),
    ]
    specs = []
    points = []  # (series name, label, cost_pred, rel_pred, start, stop)
    for name, configs, analytic in sweeps:
        for (label, factory), (cost_pred, rel_pred) in zip(configs, analytic):
            point_specs = dca_replicate_specs(
                factory,
                tasks=tasks,
                nodes=nodes,
                reliability=r,
                replications=replications,
                seed=seed,
            )
            start = len(specs)
            specs.extend(point_specs)
            points.append((name, label, cost_pred, rel_pred, start, len(specs)))
    envelopes = run_dca_replicates(specs, jobs=jobs)

    series_list: List[Series] = []
    for name, _, _ in sweeps:
        series = Series(name)
        for point_name, label, cost_pred, rel_pred, start, stop in points:
            if point_name != name:
                continue
            measurement = measurement_from_envelopes(envelopes[start:stop])
            series.add(
                SeriesPoint(
                    label=label,
                    cost=measurement.mean_cost,
                    reliability=measurement.mean_reliability,
                    cost_err=measurement.cost_err,
                    reliability_err=measurement.reliability_err,
                    extra={
                        "analytic_cost": cost_pred,
                        "analytic_reliability": rel_pred,
                        "max_jobs": measurement.max_jobs,
                    },
                )
            )
        series_list.append(series)
    return ExperimentResult(
        title=(
            f"Figure 5(a): simulated reliability vs cost factor "
            f"(r = {r}, {tasks} tasks x {replications} reps, {nodes} nodes)"
        ),
        series=series_list,
        notes=["measured points should track the analytic columns closely"],
    )


def render(result: ExperimentResult) -> str:
    rows: List[List[object]] = []
    for series in result.series:
        for point in series.points:
            rows.append(
                [
                    series.name,
                    point.label,
                    point.cost,
                    point.extra["analytic_cost"],
                    point.reliability,
                    point.extra["analytic_reliability"],
                    point.extra["max_jobs"],
                ]
            )
    return render_table(
        result.title,
        ["technique", "param", "cost", "cost (eq)", "reliability", "rel (eq)", "max jobs"],
        rows,
        result.notes,
    )


def run(
    scale: str = "default",
    r: float = DEFAULT_R,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Figure 5(a) at a CLI scale (:data:`~repro.experiments.common.SCALES`)."""
    return compute(r=r, jobs=jobs, **SCALES[scale])


def main(
    scale: str = "default",
    r: float = DEFAULT_R,
    jobs: Optional[int] = 1,
) -> str:
    return render(run(scale, r=r, jobs=jobs))


if __name__ == "__main__":  # pragma: no cover
    print(main("smoke"))
