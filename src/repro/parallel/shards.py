"""Sharded DCA task server: one computation split across worker shards.

The DES and the columnar engine both run a whole computation in one
process.  To push toward million-node pools, this module splits *one*
computation -- its task list and its node pool -- into ``S`` shards and
runs each shard as an independent task server on a
:func:`~repro.parallel.engine.parallel_map` worker.

The split is exact, not an approximation, in the model's own terms:
tasks are independent (the paper's DCA definition) and assumption 1
assigns every job a uniformly random node, so partitioning the pool and
giving each shard its tasks' waves changes nothing about any task's vote
distribution.  Churn rates split with the pool: a shard holding
``n_i / N`` of the nodes sees ``n_i / N`` of the arrival and departure
flux, so the computation-wide churn intensity is preserved.  Each shard
draws from its own spawn-derived seed family (``shard:<i>``,
:func:`~repro.parallel.seeds.shard_seeds`), so shard results depend only
on ``(base seed, shard index)`` -- never on which worker ran the shard
or in what order shards finished.

The cross-shard merge reuses the envelope machinery: every shard ships a
:class:`~repro.parallel.envelope.ReplicateEnvelope`, the reduction walks
them in **position order** (:func:`merge_shard_reports`), and
:func:`~repro.parallel.reducer.combined_fingerprint` gives the whole
computation one checksum.  ``jobs=N`` is therefore byte-identical to
``jobs=1`` for the same shard count -- the property the ``scale`` bench
suites gate in CI.

Two transports move shard results back to the parent:

* ``transport="pickle"`` (default): envelope metrics only, a few hundred
  bytes per shard -- metrics and fingerprints exactly as always.
* ``transport="shm"``: additionally ships each shard's per-task columns
  (response times, jobs, waves, correctness) out of band through
  :mod:`repro.parallel.shm`, leaving the pickle channel and the
  envelope fingerprints untouched.  :func:`merge_shard_reports` then
  reduces the columns incrementally -- one shard's block attached,
  folded into running accumulators, and unlinked before the next -- and
  cross-checks the column-derived counters against the metric-derived
  ones.

Each shard runs the columnar engine by default (``engine="columnar"``)
and falls back to the object DES with ``engine="des"`` for
configurations the columnar regime rejects.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.distributions import ReliabilityDistribution
from repro.core.strategy import RedundancyStrategy
from repro.dca import DcaConfig, run_columnar_dca, run_columnar_dca_columns, run_dca
from repro.parallel.engine import fan_out, worker_recorder
from repro.parallel.envelope import ReplicateEnvelope
from repro.parallel.reducer import combined_fingerprint, ordered
from repro.parallel.seeds import shard_seeds
from repro.parallel.shm import (
    read_columns,
    release_columns,
    shm_available,
    write_columns,
)

#: Shard engines: columnar for scale, the object DES for full generality.
SHARD_ENGINES = ("columnar", "des")

#: Result transports: metrics-only pickle, or out-of-band shared memory.
SHARD_TRANSPORTS = ("pickle", "shm")


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a larger computation, in picklable form.

    ``tasks`` and ``nodes`` are this *shard's* share of the computation,
    already split by :func:`shard_specs`; ``seed`` is the shard's
    spawn-derived root seed.  ``overrides`` carries extra
    :class:`~repro.dca.DcaConfig` fields as a sorted tuple of pairs
    (churn rates already scaled to the shard's pool share).  With
    ``columns`` set the worker also exports its per-task result columns
    through shared memory.
    """

    seed: int
    strategy: RedundancyStrategy
    tasks: int
    nodes: int
    reliability: Union[float, ReliabilityDistribution]
    engine: str = "columnar"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    telemetry: bool = False
    columns: bool = False

    def __post_init__(self) -> None:
        if self.engine not in SHARD_ENGINES:
            raise ValueError(
                f"unknown shard engine {self.engine!r}; choose from {SHARD_ENGINES}"
            )


def _split(total: int, shards: int) -> List[int]:
    """Split ``total`` into ``shards`` near-equal positive parts.

    Deterministic and position-stable: shard ``i`` always receives
    ``total // shards`` plus one extra when ``i < total % shards``.
    """
    base, extra = divmod(total, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def shard_specs(
    strategy_factory: Callable[[], RedundancyStrategy],
    *,
    tasks: int,
    nodes: int,
    reliability: Union[float, ReliabilityDistribution],
    shards: int,
    seed: int,
    engine: str = "columnar",
    telemetry: bool = False,
    **config_overrides: Any,
) -> List[ShardSpec]:
    """Split one computation into per-shard specs with spawn-derived seeds.

    Churn rates (``arrival_rate`` / ``departure_rate`` overrides) are
    scaled by each shard's node share, so the whole computation sees the
    configured churn flux; every other override passes through
    untouched.

    Raises:
        ValueError: if ``shards`` exceeds ``tasks`` or ``nodes`` (every
            shard must hold at least one task and one node -- rejecting
            degenerate zero-task shards up front beats silently merging
            their nan-valued reports later).
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if shards > tasks:
        raise ValueError(f"cannot split {tasks} tasks across {shards} shards")
    if shards > nodes:
        raise ValueError(f"cannot split {nodes} nodes across {shards} shards")
    seeds = shard_seeds(seed, shards)
    task_shares = _split(tasks, shards)
    node_shares = _split(nodes, shards)

    def shard_overrides(node_share: int) -> Tuple[Tuple[str, Any], ...]:
        scaled = dict(config_overrides)
        for rate_key in ("arrival_rate", "departure_rate"):
            if scaled.get(rate_key):
                scaled[rate_key] = scaled[rate_key] * (node_share / nodes)
        return tuple(sorted(scaled.items()))

    return [
        ShardSpec(
            seed=shard_seed,
            strategy=strategy_factory(),
            tasks=task_share,
            nodes=node_share,
            reliability=reliability,
            engine=engine,
            overrides=shard_overrides(node_share),
            telemetry=telemetry,
        )
        for shard_seed, task_share, node_share in zip(seeds, task_shares, node_shares)
    ]


def _regime_metrics(report, config: DcaConfig) -> Dict[str, Any]:
    """Extra extensive counters for the regimes the config enables.

    Keys are added only when their regime is on, so runs outside the
    regime keep their historical metric mapping -- and therefore their
    committed fingerprints -- byte-identical.
    """
    extras: Dict[str, Any] = {}
    if config.arrival_rate or config.departure_rate:
        extras["nodes_joined"] = report.nodes_joined
        extras["nodes_departed"] = report.nodes_departed
    if config.spot_check_rate:
        extras["spot_checks"] = report.spot_checks
        extras["nodes_blacklisted"] = getattr(report, "nodes_blacklisted", 0)
    if config.max_time is not None:
        extras["tasks_submitted"] = report.tasks_submitted
    return extras


def _report_columns(report, spec_engine: str):
    """Per-task result columns in task-id order, engine-independent."""
    if spec_engine == "columnar":
        return None  # the columnar engine hands them over directly
    order = sorted(report.records, key=lambda record: record.task_id)
    return {
        "response_time": np.asarray(
            [record.response_time for record in order], dtype=np.float64
        ),
        "jobs_used": np.asarray([record.jobs_used for record in order], dtype=np.int64),
        "waves": np.asarray([record.waves for record in order], dtype=np.int64),
        "correct": np.asarray([record.correct for record in order], dtype=bool),
    }


def run_dca_shard(spec: ShardSpec) -> ReplicateEnvelope:
    """Execute one shard (the module-level, picklable worker).

    The shard's metrics are its report's ``as_dict()`` plus the extensive
    counters (``tasks_correct``, ``total_jobs``, ``jobs_timed_out``, and
    per-regime extras) the cross-shard reduction needs to merge exactly
    rather than from rounded means.  With ``spec.columns`` the per-task
    columns additionally go out through shared memory.
    """
    start = time.perf_counter()
    recorder = worker_recorder(spec.telemetry)
    config = DcaConfig(
        strategy=copy.deepcopy(spec.strategy),
        tasks=spec.tasks,
        nodes=spec.nodes,
        reliability=spec.reliability,
        seed=spec.seed,
        **dict(spec.overrides),
    )
    columns = None
    if spec.engine == "columnar":
        if spec.columns:
            report, columns = run_columnar_dca_columns(config, recorder=recorder)
        else:
            report = run_columnar_dca(config, recorder=recorder)
    else:
        report = run_dca(config, recorder=recorder)
        if spec.columns:
            columns = _report_columns(report, spec.engine)
    metrics = report.as_dict()
    metrics["tasks_correct"] = report.tasks_correct
    metrics["total_jobs"] = report.total_jobs
    metrics["jobs_timed_out"] = report.jobs_timed_out
    metrics.update(_regime_metrics(report, config))
    return ReplicateEnvelope.from_worker(
        spec.seed,
        metrics,
        start,
        telemetry=recorder.as_payload() if recorder is not None else None,
        columns=write_columns(columns) if columns is not None else None,
    )


def run_dca_shards(
    specs: Sequence[ShardSpec],
    *,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    transport: str = "pickle",
) -> List[ReplicateEnvelope]:
    """Run the shards (serial or fanned out) and envelope the results.

    The envelope list is in shard-position order whatever the worker
    scheduling was; feed it to :func:`merge_shard_reports` for the
    merged computation-level report.  As in
    :func:`~repro.parallel.dca.run_dca_replicates`, an installed
    :class:`~repro.obs.TelemetrySink` transparently upgrades the specs
    to record telemetry, without perturbing metrics or fingerprints.

    ``transport="shm"`` additionally ships per-task columns out of band
    (POSIX shared memory; see :mod:`repro.parallel.shm`); the envelopes
    then carry column handles whose segments the merge -- or
    :func:`release_shard_columns` -- must release.

    Raises:
        ReplicateError: naming the failed shard's position and seed when
            any shard crashes.  The segments of the shards that finished
            are released first.
    """
    if transport not in SHARD_TRANSPORTS:
        raise ValueError(
            f"unknown shard transport {transport!r}; choose from {SHARD_TRANSPORTS}"
        )
    # numpy loads numpy.random lazily; importing it here, before the
    # pool forks, spares every fresh worker that import on its first
    # shard, while ``import repro.parallel`` stays without it.
    import numpy.random  # noqa: F401

    specs = list(specs)
    if transport == "shm":
        if not shm_available():
            raise RuntimeError(
                "transport='shm' needs multiprocessing.shared_memory "
                "(POSIX); use transport='pickle'"
            )
        specs = [replace(spec, columns=True) for spec in specs]
    return fan_out(
        run_dca_shard,
        specs,
        item="shard",
        jobs=jobs,
        chunk_size=chunk_size,
        sink_tag="sharded",
    )


#: Extensive per-regime counters that sum across shards when present.
_REGIME_SUM_KEYS = (
    "nodes_joined",
    "nodes_departed",
    "spot_checks",
    "nodes_blacklisted",
    "tasks_submitted",
)


def merge_shard_reports(envelopes: Sequence[ReplicateEnvelope]) -> Dict[str, Any]:
    """Reduce shard envelopes into one computation-level report dict.

    Position-ordered and purely arithmetic, so the merged report is
    identical whatever order the shards completed in:

    * extensive counters (tasks, correct tasks, jobs, timeouts, and any
      per-regime extras) sum;
    * per-task means re-weight by each shard's *completed* task count,
      skipping empty shards -- under a ``max_time`` horizon a shard can
      complete zero tasks, and its nan-valued means must not poison the
      weighted average (nor its zero count the divisor);
    * maxima (max jobs, max response time, makespan) take the max over
      non-empty shards -- shards run concurrently, so the computation
      finishes when the slowest shard does;
    * ``checksum`` is :func:`~repro.parallel.reducer.combined_fingerprint`
      over the shard fingerprints, the identity the bench suites gate.

    When the envelopes carry shared-memory column handles
    (``transport="shm"``), the columns are reduced incrementally --
    one shard's block attached, folded into running accumulators in
    place, and unlinked before the next -- and the column-derived
    counters are cross-checked against the metric-derived ones; the
    exact column aggregates land under ``"columns"``.
    """
    if not envelopes:
        raise ValueError("cannot merge zero shard envelopes")
    by_position = ordered(envelopes)
    metrics = [envelope.metrics for envelope in by_position]
    tasks = sum(shard["tasks"] for shard in metrics)
    correct = sum(shard["tasks_correct"] for shard in metrics)
    total_jobs = sum(shard["total_jobs"] for shard in metrics)
    # Shards that completed zero tasks report nan means and 0/nan
    # extremes; every per-task aggregate below walks the live ones only.
    live = [shard for shard in metrics if shard["tasks"]]

    def weighted(key: str) -> float:
        if not tasks:
            return math.nan
        return sum(shard[key] * shard["tasks"] for shard in live) / tasks

    merged = {
        "strategy": metrics[0]["strategy"],
        "shards": len(by_position),
        "tasks": tasks,
        "tasks_correct": correct,
        "reliability": correct / tasks if tasks else math.nan,
        "total_jobs": total_jobs,
        "cost_factor": total_jobs / tasks if tasks else math.nan,
        "max_jobs": max((shard["max_jobs"] for shard in live), default=0),
        "mean_response_time": weighted("mean_response_time"),
        "max_response_time": max(
            (shard["max_response_time"] for shard in live), default=math.nan
        ),
        "mean_waves": weighted("mean_waves"),
        "makespan": max(shard["makespan"] for shard in metrics),
        "jobs_timed_out": sum(shard["jobs_timed_out"] for shard in metrics),
        "checksum": combined_fingerprint(by_position),
    }
    for key in _REGIME_SUM_KEYS:
        if all(key in shard for shard in metrics):
            merged[key] = sum(shard[key] for shard in metrics)
    if any(envelope.columns is not None for envelope in by_position):
        merged["columns"] = merge_shard_columns(by_position, expected=merged)
    return merged


def merge_shard_columns(
    envelopes: Sequence[ReplicateEnvelope],
    *,
    expected: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Reduce shared-memory shard columns into exact aggregates.

    Walks the envelopes in position order, attaching one shard's block
    at a time, folding it into running accumulators, and unlinking the
    segment before touching the next -- peak memory is a single shard's
    columns, whatever the shard count.  With ``expected`` (a merged
    metrics dict) the integer counters are cross-checked against the
    metric-derived values, so a transport bug cannot silently skew the
    numbers.

    Raises:
        ValueError: if an envelope carries no column handle, or the
            cross-check against ``expected`` fails.
    """
    by_position = ordered(envelopes)
    tasks = 0
    tasks_correct = 0
    total_jobs = 0
    max_jobs = 0
    waves_total = 0
    response_sum = 0.0
    max_response = math.nan
    for envelope in by_position:
        if envelope.columns is None:
            raise ValueError(
                f"shard #{envelope.position} carries no column handle; "
                "was it run with transport='shm'?"
            )
        block = read_columns(envelope.columns)  # copies out, then unlinks
        count = int(block["response_time"].shape[0])
        tasks += count
        if not count:
            continue
        tasks_correct += int(block["correct"].sum())
        total_jobs += int(block["jobs_used"].sum())
        max_jobs = max(max_jobs, int(block["jobs_used"].max()))
        waves_total += int(block["waves"].sum())
        response_sum += float(block["response_time"].sum())
        shard_max = float(block["response_time"].max())
        max_response = shard_max if math.isnan(max_response) else max(max_response, shard_max)
    aggregates = {
        "tasks": tasks,
        "tasks_correct": tasks_correct,
        "total_jobs": total_jobs,
        "max_jobs": max_jobs,
        "mean_response_time": response_sum / tasks if tasks else math.nan,
        "max_response_time": max_response,
        "mean_waves": waves_total / tasks if tasks else math.nan,
    }
    if expected is not None:
        for key in ("tasks", "tasks_correct", "total_jobs", "max_jobs"):
            if aggregates[key] != expected[key]:
                raise ValueError(
                    f"shared-memory column reduction disagrees with shard "
                    f"metrics on {key}: {aggregates[key]} != {expected[key]}"
                )
    return aggregates


def release_shard_columns(envelopes: Sequence[ReplicateEnvelope]) -> None:
    """Unlink every envelope's column segment without reading (cleanup)."""
    for envelope in envelopes:
        release_columns(envelope.columns)
