"""Figure 5(b): the BOINC-on-PlanetLab deployment study.

The paper deployed BOINC on 200 PlanetLab nodes solving 22-variable 3-SAT
problems split into 140 tasks, with 30% seeded faults plus unknown natural
PlanetLab failures, and plotted system reliability vs cost factor per
technique.  It then *derived* the node reliability from the measurements
-- consistently 0.64 < r < 0.67 across all techniques and parameters --
as evidence of experimental validity.

This harness runs the synthetic PlanetLab deployment
(:mod:`repro.volunteer`) with the same shape: 200 nodes, 140 tasks per
problem, seeded 0.3 faults, natural fault and unresponsiveness processes
the algorithms are never told about.  It reports each run's measured
reliability, cost, and the derived r.

Each (technique, parameter, problem) run is one
:class:`VolunteerProblemSpec`; :func:`run_volunteer_problems` fans them
out through :func:`repro.parallel.engine.fan_out` like any DCA
replicate.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core import IterativeRedundancy, ProgressiveRedundancy, TraditionalRedundancy
from repro.core.strategy import RedundancyStrategy
from repro.experiments.common import ExperimentResult, Series, SeriesPoint, render_table
from repro.parallel.engine import fan_out
from repro.parallel.envelope import ReplicateEnvelope
from repro.volunteer import PlanetLabTestbed, VolunteerConfig, run_volunteer

DEFAULT_KS = (3, 7, 11, 15, 19)
DEFAULT_DS = (1, 2, 3, 4, 5, 6)

#: (sat_vars, tasks) per scale; the full scale is the paper's exact shape.
DEPLOYMENT_SCALES = {
    "smoke": dict(sat_vars=12, tasks=60, problems=2),
    "default": dict(sat_vars=16, tasks=140, problems=3),
    "full": dict(sat_vars=22, tasks=140, problems=5),
}


@dataclass(frozen=True)
class VolunteerProblemSpec:
    """One volunteer problem run, in picklable form."""

    seed: int
    strategy: RedundancyStrategy
    testbed: PlanetLabTestbed
    sat_vars: int
    tasks: int


def run_volunteer_problem(spec: VolunteerProblemSpec) -> ReplicateEnvelope:
    """Execute one volunteer problem (module-level, picklable worker).

    The strategy is deep-copied so serial and parallel runs see the same
    fresh state even when a caller shares one instance across specs.
    """
    start = time.perf_counter()
    report = run_volunteer(
        VolunteerConfig(
            strategy=copy.deepcopy(spec.strategy),
            testbed=spec.testbed,
            sat_vars=spec.sat_vars,
            tasks=spec.tasks,
            seed=spec.seed,
        )
    )
    metrics = report.as_dict()
    metrics["derived_reliability"] = (
        report.derived_reliability
        if not math.isnan(report.derived_reliability)
        else None
    )
    metrics["problem_correct"] = report.problem_correct
    metrics["deadline_misses"] = report.deadline_misses
    return ReplicateEnvelope.from_worker(spec.seed, metrics, start)


def run_volunteer_problems(
    specs: Sequence[VolunteerProblemSpec],
    *,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
) -> List[ReplicateEnvelope]:
    """Run volunteer problems (serial or fanned out) into envelopes."""
    return fan_out(
        run_volunteer_problem,
        specs,
        item="volunteer problem",
        jobs=jobs,
        chunk_size=chunk_size,
    )


def compute(
    ks: Sequence[int] = DEFAULT_KS,
    ds: Sequence[int] = DEFAULT_DS,
    *,
    sat_vars: int = 16,
    tasks: int = 140,
    problems: int = 3,
    nodes: int = 200,
    seed: int = 3,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Run the volunteer deployment per technique and parameter.

    Every (technique, parameter, problem) run is independent, so the
    whole grid fans out through the parallel replication engine; the
    per-problem seeds (``seed * 1000 + problem``) and all aggregates are
    identical for any ``jobs`` value.
    """
    testbed = PlanetLabTestbed(nodes=nodes)
    sweeps: List[Tuple[str, List[Tuple[str, RedundancyStrategy]]]] = [
        ("TR", [(f"k={k}", TraditionalRedundancy(k)) for k in ks]),
        ("PR", [(f"k={k}", ProgressiveRedundancy(k)) for k in ks]),
        ("IR", [(f"d={d}", IterativeRedundancy(d)) for d in ds]),
    ]
    specs = []
    points = []  # (series name, label, start, stop)
    for name, strategies in sweeps:
        for label, strategy in strategies:
            start = len(specs)
            for problem in range(problems):
                specs.append(
                    VolunteerProblemSpec(
                        seed=seed * 1_000 + problem,
                        strategy=strategy,
                        testbed=testbed,
                        sat_vars=sat_vars,
                        tasks=tasks,
                    )
                )
            points.append((name, label, start, len(specs)))
    envelopes = run_volunteer_problems(specs, jobs=jobs)

    series_list: List[Series] = []
    for name, _ in sweeps:
        series = Series(name)
        for point_name, label, start, stop in points:
            if point_name != name:
                continue
            metrics = [envelope.metrics for envelope in envelopes[start:stop]]
            reliabilities = [m["reliability"] for m in metrics]
            costs = [m["cost_factor"] for m in metrics]
            derived = [
                m["derived_reliability"]
                for m in metrics
                if m["derived_reliability"] is not None
            ]
            problems_correct = sum(1 for m in metrics if m["problem_correct"])
            series.add(
                SeriesPoint(
                    label=label,
                    cost=sum(costs) / len(costs),
                    reliability=sum(reliabilities) / len(reliabilities),
                    extra={
                        "derived_r": sum(derived) / len(derived) if derived else float("nan"),
                        "problems_correct": problems_correct,
                        "problems": problems,
                    },
                )
            )
        series_list.append(series)
    return ExperimentResult(
        title=(
            f"Figure 5(b): volunteer deployment on synthetic PlanetLab "
            f"({nodes} nodes, {tasks} tasks/problem, {sat_vars}-var 3-SAT, "
            f"{problems} problems/point)"
        ),
        series=series_list,
        notes=[
            "seeded fault rate 0.3; natural faults push true r below 0.7",
            "derived r should sit consistently in ~0.62-0.67 across techniques",
            "at equal cost: IR > PR > TR, as in Figure 5(a)",
        ],
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
                    point.reliability,
                    point.extra["derived_r"],
                    f"{point.extra['problems_correct']}/{point.extra['problems']}",
                ]
            )
    return render_table(
        result.title,
        ["technique", "param", "cost", "reliability", "derived r", "problems correct"],
        rows,
        result.notes,
    )


def run(scale: str = "default", jobs: Optional[int] = 1) -> ExperimentResult:
    """Figure 5(b) at a CLI scale (:data:`DEPLOYMENT_SCALES`)."""
    return compute(jobs=jobs, **DEPLOYMENT_SCALES[scale])


def main(scale: str = "default", jobs: Optional[int] = 1) -> str:
    return render(run(scale, jobs=jobs))


if __name__ == "__main__":  # pragma: no cover
    print(main("smoke"))
