"""The four end-to-end workloads and the layer probes of the traced pass.

Every workload is closed-loop: :meth:`Workload.iterate` is one unit of
user-visible work (a figure, a simulation, a sharded computation) and the
harness starts the next one when it returns.  Inputs are a pure function
of ``seed``; nothing else varies between runs.

The workloads stress different layers, so that an optimisation of one
layer shows on a workload that runs it and not on one that bypasses it:

* ``figure-sweep`` -- the paper's Figure 5(a): per-task DES replicates
  fanned out by the replicate engine (``repro.experiments``,
  ``repro.parallel`` replicates, ``repro.dca`` DES, ``repro.sim``).
* ``des-contended`` -- one large, contended DES run under a telemetry
  recorder (event loop, task server, ``decide``, ``repro.obs``).
* ``scale-columnar`` -- a million-task computation on the columnar engine,
  sharded over a process pool with pickle transport.
* ``regimes-columnar`` -- the same layers with churn, spot checks and the
  shared-memory transport, whose kernels ``scale-columnar`` never runs.
"""

from __future__ import annotations

import copy
import functools
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from checks import Expectation, check_point, expectation, z_limit
from repro.core import IterativeRedundancy, ProgressiveRedundancy, TraditionalRedundancy
from repro.dca import DcaConfig, DcaSimulation, run_columnar_dca_columns
from repro.experiments import figure5a
from repro.obs import TelemetryRecorder
from repro.parallel import (
    dca_replicate_specs,
    fingerprint_of,
    merge_shard_reports,
    read_columns,
    release_columns,
    release_shard_columns,
    run_dca_shards,
    shard_specs,
    shm_available,
    write_columns,
)

#: Average node reliability of every workload (the paper's r).
R = 0.7


class CheckFailed(Exception):
    """A layer probe disagreed with the traced iteration it replays."""


@dataclass
class Outcome:
    """What one iteration produced, as the harness judges it.

    ``details`` carries what the layer metrics of the traced pass read
    from the iteration (envelopes, shard specs, run counters).
    """

    tasks: int
    fingerprint: str
    failures: List[str]
    details: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """One workload: inputs built from ``seed`` at construction.

    Subclasses take ``smoke`` too, which shrinks the inputs to test size.
    """

    name = ""

    def __init__(self, *, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs

    def manifest(self) -> Dict[str, Any]:
        """How the workload's results are produced (engine, transport...)."""
        raise NotImplementedError

    def iterate(self, tracer) -> Outcome:
        """Run one closed-loop iteration and judge its output."""
        raise NotImplementedError

    def layer_metrics(self, tracer, outcome: Outcome) -> Dict[str, float]:
        """Per-layer metrics from the traced iteration plus in-process probes."""
        raise NotImplementedError


def _des_layer(tracer, iteration: str, runs: List[Tuple[Any, Any]]) -> Dict[str, float]:
    """DES-layer metrics over ``(DcaSimulation, DcaReport)`` pairs.

    The build and run times are the ``dca.des_build`` / ``dca.des_run``
    spans of ``iteration``; the decide counters come from the strategies
    the tracer timed in it.
    """
    run_s = tracer.total("dca.des_run", iteration)
    jobs = sum(report.total_jobs_dispatched for _, report in runs)
    events = sum(simulation.sim.events_processed for simulation, _ in runs)
    decide_calls, decide_s = tracer.decide_totals(iteration)
    return {
        "dca.des_build_s": tracer.total("dca.des_build", iteration),
        "dca.des_run_s": run_s,
        "dca.des_jobs": jobs,
        "dca.des_jobs_per_s": jobs / run_s,
        "dca.jobs_timed_out": sum(report.jobs_timed_out for _, report in runs),
        "sim.events": events,
        "sim.events_per_s": events / run_s,
        "core.decide_calls": decide_calls,
        "core.decide_s": decide_s,
        "core.decide_share": decide_s / run_s,
    }


def _tests(expected) -> int:
    """z-tests per iteration: reliability always, cost where it varies."""
    return sum(1 + (item.cost_variance > 0.0) for item in expected)


def _run_des(tracer, config: DcaConfig, recorder=None):
    with tracer.span("dca.des_build"):
        simulation = DcaSimulation(config, recorder=recorder)
    with tracer.span("dca.des_run"):
        report = simulation.run()
    return simulation, report


class FigureSweep(Workload):
    """Figure 5(a): 16 (technique, parameter) points x 2 DES replicates."""

    name = "figure-sweep"
    KS = (3, 7, 11, 15, 19)
    DS = (1, 2, 3, 4, 5, 6)
    REPLICATIONS = 2

    def __init__(self, *, seed: int, smoke: bool, jobs: int) -> None:
        super().__init__(seed=seed, jobs=jobs)
        # Ten tasks per node, as at the figure's default scale.
        self.tasks, self.nodes = (60, 6) if smoke else (1_500, 150)
        self.expected: Dict[Tuple[str, int], Expectation] = {}
        for technique, params in (("TR", self.KS), ("PR", self.KS), ("IR", self.DS)):
            for param in params:
                self.expected[(technique, param)] = expectation(technique, param, R)
        self.z_max = z_limit(_tests(self.expected.values()))

    def manifest(self) -> Dict[str, Any]:
        return {
            "engine": "des",
            "transport": "pickle",
            "queue": "heap",
            "recorder": "none",
            "tasks": self.tasks,
            "nodes": self.nodes,
            "replications": self.REPLICATIONS,
            "points": len(self.expected),
        }

    def iterate(self, tracer) -> Outcome:
        with tracer.patch(figure5a, "run_dca_replicates", "parallel.replicates"):
            with tracer.span("experiments.figure"):
                result = figure5a.compute(
                    R,
                    self.KS,
                    self.DS,
                    tasks=self.tasks,
                    nodes=self.nodes,
                    replications=self.REPLICATIONS,
                    seed=self.seed,
                    jobs=self.jobs,
                )
        per_point = self.tasks * self.REPLICATIONS
        failures: List[str] = []
        seen = set()
        for series in result.series:
            for point in series.points:
                key = (series.name, int(point.label.split("=")[1]))
                seen.add(key)
                failures += check_point(
                    self.expected[key],
                    tasks=per_point,
                    reliability=point.reliability,
                    cost=point.cost,
                    z_max=self.z_max,
                )
        if seen != set(self.expected):
            failures.append(f"figure has points {sorted(seen)}, expected {sorted(self.expected)}")
        # The DES has no horizon here, so every replicate completes all
        # of its tasks.
        return Outcome(per_point * len(seen), fingerprint_of(result.as_dict()), failures)

    def layer_metrics(self, tracer, outcome: Outcome) -> Dict[str, float]:
        envelopes = tracer.results["parallel.replicates"]
        wall = tracer.total("parallel.replicates")
        busy = sum(envelope.duration for envelope in envelopes)
        metrics = {
            "experiments.figure_s": tracer.total("experiments.figure"),
            "experiments.self_s": tracer.self_time_by_name()["experiments.figure"],
            "parallel.replicates_s": wall,
            "parallel.replicate_busy_s": busy,
            "parallel.replicate_max_s": max(envelope.duration for envelope in envelopes),
            "parallel.replicate_efficiency": busy / (min(self.jobs, len(envelopes)) * wall),
        }
        # The replicates ran in pool workers; replay the IR series'
        # specs in-process to see the DES layers inside them.
        fingerprints = {
            (envelope.metrics["strategy"], envelope.seed): envelope.fingerprint
            for envelope in envelopes
        }
        runs = []
        with tracer.tagged("probe.des"):
            for d in self.DS:
                specs = dca_replicate_specs(
                    functools.partial(IterativeRedundancy, d),
                    tasks=self.tasks,
                    nodes=self.nodes,
                    reliability=R,
                    replications=self.REPLICATIONS,
                    seed=self.seed,
                )
                for spec in specs:
                    config = DcaConfig(
                        strategy=tracer.timed(spec.strategy),
                        tasks=spec.tasks,
                        nodes=spec.nodes,
                        reliability=spec.reliability,
                        seed=spec.seed,
                        **dict(spec.overrides),
                    )
                    simulation, report = _run_des(tracer, config)
                    replayed = fingerprint_of(report.as_dict())
                    if replayed != fingerprints.get((report.strategy, spec.seed)):
                        raise CheckFailed(
                            f"in-process replay of {report.strategy} seed {spec.seed} "
                            "differs from the pool worker's replicate"
                        )
                    runs.append((simulation, report))
        metrics.update(_des_layer(tracer, "probe.des", runs))
        return metrics


class DesContended(Workload):
    """One TR k=19 DES run with far more jobs than nodes, recorder on."""

    name = "des-contended"
    K = 19
    SPAN_CAP = EVENT_CAP = 20_000

    def __init__(self, *, seed: int, smoke: bool, jobs: int) -> None:
        super().__init__(seed=seed, jobs=jobs)
        # 19 jobs per task over the pool keeps every node busy and about
        # two pending events (completion, timeout) per node queued.
        self.tasks, self.nodes = (200, 400) if smoke else (4_000, 8_000)
        self.expected = expectation("TR", self.K, R)
        self.z_max = z_limit(_tests([self.expected]))

    def manifest(self) -> Dict[str, Any]:
        return {
            "engine": "des",
            "transport": "none",
            "queue": "heap",
            "recorder": f"TelemetryRecorder(max_spans={self.SPAN_CAP}, max_events={self.EVENT_CAP})",
            "tasks": self.tasks,
            "nodes": self.nodes,
            "strategy": f"TR k={self.K}",
        }

    def config(self, strategy, queue: str = "heap") -> DcaConfig:
        return DcaConfig(
            strategy=strategy,
            tasks=self.tasks,
            nodes=self.nodes,
            reliability=R,
            seed=self.seed,
            queue=queue,
        )

    def recorder(self) -> TelemetryRecorder:
        return TelemetryRecorder(max_spans=self.SPAN_CAP, max_events=self.EVENT_CAP)

    def iterate(self, tracer) -> Outcome:
        recorder = self.recorder()
        strategy = tracer.timed(TraditionalRedundancy(self.K))
        simulation, report = _run_des(tracer, self.config(strategy), recorder)
        failures = check_point(
            self.expected,
            tasks=report.tasks_completed,
            reliability=report.system_reliability,
            cost=report.cost_factor,
            z_max=self.z_max,
        )
        if report.tasks_completed != self.tasks:
            failures.append(f"{report.tasks_completed} of {self.tasks} tasks completed")
        return Outcome(
            report.tasks_completed,
            fingerprint_of(report.as_dict()),
            failures,
            details={"run": (simulation, report), "recorder": recorder},
        )

    def _replay(
        self, tracer, outcome: Outcome, label: str, *, queue: str = "heap", recorder=None
    ) -> float:
        """Re-run the iteration with a plain strategy; it must give the same report."""
        config = self.config(TraditionalRedundancy(self.K), queue)
        with tracer.tagged(label), tracer.span(label):
            _, report = _run_des(tracer, config, recorder)
        if fingerprint_of(report.as_dict()) != outcome.fingerprint:
            raise CheckFailed(f"{label} run differs from the traced iteration")
        return tracer.total(label, label)

    def layer_metrics(self, tracer, outcome: Outcome) -> Dict[str, float]:
        recorder = outcome.details["recorder"]
        metrics = _des_layer(tracer, "traced", [outcome.details["run"]])
        # The replays run right after the traced iteration (heap queue,
        # recorder on), so a slow spell of the machine skews the ratios
        # less than against the timed loop.  Telemetry on == off and
        # heap == calendar byte for byte: both must reproduce it.
        traced_s = metrics["dca.des_build_s"] + metrics["dca.des_run_s"]
        bare_s = self._replay(tracer, outcome, "probe.bare")
        calendar_s = self._replay(
            tracer, outcome, "probe.calendar", queue="calendar", recorder=self.recorder()
        )
        metrics.update(
            {
                "obs.recorder_overhead": traced_s / bare_s - 1.0,
                "obs.spans_kept": len(recorder.spans),
                "obs.spans_dropped": recorder.dropped_spans,
                "sim.calendar_ratio": calendar_s / traced_s,
            }
        )
        return metrics


class ScaleColumnar(Workload):
    """IR d=3 over 10^6 tasks / 10^5 nodes in 8 columnar shards, pickle transport."""

    name = "scale-columnar"
    TECHNIQUE = ("IR", 3)
    TRANSPORT = "pickle"

    def __init__(self, *, seed: int, smoke: bool, jobs: int) -> None:
        super().__init__(seed=seed, jobs=jobs)
        if not shm_available():
            raise RuntimeError("the columnar workloads need numpy and POSIX shared memory")
        self.tasks, self.nodes, self.shards = (
            (20_000, 2_000, 4) if smoke else (1_000_000, 100_000, 8)
        )
        self.expected = expectation(*self.TECHNIQUE, R)
        self.z_max = z_limit(_tests([self.expected]))

    def strategy_factory(self):
        return functools.partial(IterativeRedundancy, self.TECHNIQUE[1])

    def overrides(self) -> Dict[str, float]:
        return {}

    def manifest(self) -> Dict[str, Any]:
        return {
            "engine": "columnar",
            "transport": self.TRANSPORT,
            "queue": "none",
            "recorder": "none",
            "tasks": self.tasks,
            "nodes": self.nodes,
            "shards": self.shards,
            "strategy": self.expected.label,
            **self.overrides(),
        }

    def regime_failures(self, merged: Dict[str, Any]) -> List[str]:
        return []

    def iterate(self, tracer) -> Outcome:
        with tracer.span("parallel.specs"):
            specs = shard_specs(
                self.strategy_factory(),
                tasks=self.tasks,
                nodes=self.nodes,
                reliability=R,
                shards=self.shards,
                seed=self.seed,
                **self.overrides(),
            )
        with tracer.span("parallel.shards"):
            envelopes = run_dca_shards(specs, jobs=self.jobs, transport=self.TRANSPORT)
        try:
            with tracer.span("parallel.merge"):
                merged = merge_shard_reports(envelopes)
        except BaseException:
            release_shard_columns(envelopes)
            raise
        failures = check_point(
            self.expected,
            tasks=merged["tasks"],
            reliability=merged["reliability"],
            cost=merged["cost_factor"],
            z_max=self.z_max,
        )
        if merged["tasks"] != self.tasks:
            failures.append(f"{merged['tasks']} of {self.tasks} tasks completed")
        failures += self.regime_failures(merged)
        return Outcome(
            merged["tasks"],
            fingerprint_of(merged),
            failures,
            details={"specs": specs, "envelopes": envelopes},
        )

    def layer_metrics(self, tracer, outcome: Outcome) -> Dict[str, float]:
        envelopes = outcome.details["envelopes"]
        shards_s = tracer.total("parallel.shards")
        busy = sum(envelope.duration for envelope in envelopes)
        per_worker: Dict[int, float] = {}
        for envelope in envelopes:
            per_worker[envelope.worker_pid] = per_worker.get(envelope.worker_pid, 0.0) + envelope.duration
        metrics = {
            "parallel.specs_s": tracer.total("parallel.specs"),
            "parallel.shards_s": shards_s,
            "parallel.shard_busy_s": busy,
            "parallel.shard_max_s": max(envelope.duration for envelope in envelopes),
            "parallel.shard_efficiency": busy / (min(self.jobs, len(envelopes)) * shards_s),
            "parallel.pool_overhead_s": shards_s - max(per_worker.values()),
            "parallel.merge_s": tracer.total("parallel.merge"),
        }
        metrics.update(self._shard_probe(tracer, outcome))
        return metrics

    def _shard_probe(self, tracer, outcome: Outcome) -> Dict[str, float]:
        """Shard 0 in-process, then its columns through both transports."""
        spec = outcome.details["specs"][0]
        shard = outcome.details["envelopes"][0].metrics
        config = DcaConfig(
            strategy=copy.deepcopy(spec.strategy),
            tasks=spec.tasks,
            nodes=spec.nodes,
            reliability=spec.reliability,
            seed=spec.seed,
            **dict(spec.overrides),
        )
        with tracer.tagged("probe.shard0"):
            with tracer.span("dca.columnar"):
                report, columns = run_columnar_dca_columns(config)
            if (report.tasks_correct, report.total_jobs) != (
                shard["tasks_correct"],
                shard["total_jobs"],
            ):
                raise CheckFailed("in-process shard 0 differs from the pool worker's shard 0")
            with tracer.span("parallel.shm_write"):
                handle = write_columns(columns)
            try:
                with tracer.span("parallel.shm_read"):
                    via_shm = read_columns(handle)
            except BaseException:
                release_columns(handle)
                raise
            with tracer.span("parallel.pickle_roundtrip"):
                via_pickle = pickle.loads(pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL))
        for transport, received in (("shm", via_shm), ("pickle", via_pickle)):
            if set(received) != set(columns) or not all(
                np.array_equal(received[key], columns[key]) for key in columns
            ):
                raise CheckFailed(f"columns changed in {transport} transport")
        columnar_s = tracer.total("dca.columnar", "probe.shard0")
        return {
            "parallel.column_bytes": sum(column.nbytes for column in columns.values()),
            "parallel.shm_write_s": tracer.total("parallel.shm_write", "probe.shard0"),
            "parallel.shm_read_s": tracer.total("parallel.shm_read", "probe.shard0"),
            "parallel.pickle_roundtrip_s": tracer.total("parallel.pickle_roundtrip", "probe.shard0"),
            "dca.columnar_s": columnar_s,
            "dca.columnar_jobs": report.total_jobs,
            "dca.columnar_jobs_per_s": report.total_jobs / columnar_s,
            "dca.mean_waves": report.mean_waves,
            "dca.spot_checks": report.spot_checks,
            "dca.nodes_churned": report.nodes_joined + report.nodes_departed,
        }


class RegimesColumnar(ScaleColumnar):
    """PR k=7 with churn and spot checks, shard columns over shared memory."""

    name = "regimes-columnar"
    TECHNIQUE = ("PR", 7)
    TRANSPORT = "shm"

    def strategy_factory(self):
        return functools.partial(ProgressiveRedundancy, self.TECHNIQUE[1])

    def overrides(self) -> Dict[str, float]:
        churn = 0.01 * self.nodes
        return {"arrival_rate": churn, "departure_rate": churn, "spot_check_rate": 0.05}

    def regime_failures(self, merged: Dict[str, Any]) -> List[str]:
        return [
            f"regime counter {key} is {merged.get(key)!r}, expected > 0"
            for key in ("spot_checks", "nodes_joined", "nodes_departed")
            if not merged.get(key, 0) > 0
        ]


#: Workload name -> class, in the order the suite runs them.
WORKLOADS = {
    workload.name: workload
    for workload in (FigureSweep, DesContended, ScaleColumnar, RegimesColumnar)
}
