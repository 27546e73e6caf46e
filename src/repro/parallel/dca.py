"""DCA replicate worker: run one DES replicate, return an envelope.

This is the substrate glue between :func:`repro.parallel.engine.fan_out`
and :func:`repro.dca.run_dca`.  The spec is a frozen, picklable value
object; the worker rebuilds the full :class:`~repro.dca.config.DcaConfig`
from it inside the (possibly remote) process, so no live simulation
state ever crosses a process boundary.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.distributions import ReliabilityDistribution
from repro.core.strategy import RedundancyStrategy
from repro.dca import DcaConfig, run_dca
from repro.parallel.engine import fan_out, worker_recorder
from repro.parallel.envelope import ReplicateEnvelope
from repro.parallel.seeds import replicate_seeds


@dataclass(frozen=True)
class DcaReplicateSpec:
    """Everything one DCA replicate needs, in picklable form.

    The strategy is a *fresh instance* built by the caller's factory; it
    is pickled to the worker (parallel) or used directly (serial), so
    node-aware strategies start every replicate from a clean slate either
    way.  ``overrides`` carries extra :class:`DcaConfig` fields as a
    sorted tuple of pairs to keep the spec hashable.

    ``telemetry`` asks the worker to run under a buffering
    :class:`~repro.obs.TelemetryRecorder` and ship the capped payload
    back in the envelope.  It never perturbs the simulation: metrics and
    fingerprints are identical with it on or off.
    """

    seed: int
    strategy: RedundancyStrategy
    tasks: int
    nodes: int
    reliability: Union[float, ReliabilityDistribution]
    overrides: Tuple[Tuple[str, Any], ...] = ()
    telemetry: bool = False


def dca_replicate_specs(
    strategy_factory: Callable[[], RedundancyStrategy],
    *,
    tasks: int,
    nodes: int,
    reliability: Union[float, ReliabilityDistribution],
    replications: int,
    seed: int,
    telemetry: bool = False,
    **config_overrides: Any,
) -> List[DcaReplicateSpec]:
    """Build one spec per replicate with spawn-derived seeds."""
    seeds = replicate_seeds(seed, replications)
    overrides = tuple(sorted(config_overrides.items()))
    return [
        DcaReplicateSpec(
            seed=replicate_seed,
            strategy=strategy_factory(),
            tasks=tasks,
            nodes=nodes,
            reliability=reliability,
            overrides=overrides,
            telemetry=telemetry,
        )
        for replicate_seed in seeds
    ]


def run_dca_replicate(spec: DcaReplicateSpec) -> ReplicateEnvelope:
    """Execute one replicate (the module-level, picklable worker)."""
    start = time.perf_counter()
    recorder = worker_recorder(spec.telemetry)
    # Deep-copy so serial runs match parallel ones (where pickling makes
    # the copy) even if a caller shares one strategy across specs.
    report = run_dca(
        DcaConfig(
            strategy=copy.deepcopy(spec.strategy),
            tasks=spec.tasks,
            nodes=spec.nodes,
            reliability=spec.reliability,
            seed=spec.seed,
            **dict(spec.overrides),
        ),
        recorder=recorder,
    )
    return ReplicateEnvelope.from_worker(
        spec.seed,
        report.as_dict(),
        start,
        telemetry=recorder.as_payload() if recorder is not None else None,
    )


def run_dca_replicates(
    specs: Sequence[DcaReplicateSpec],
    *,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
) -> List[ReplicateEnvelope]:
    """Run DCA replicates (serial or fanned out) and envelope the results.

    When a :class:`~repro.obs.TelemetrySink` is installed (see
    ``--telemetry`` on the experiment CLIs), specs are transparently
    upgraded to record telemetry and the position-merged payload is
    handed to the sink.  The upgrade happens parent-side only and never
    changes seeds, metrics, or fingerprints.

    Raises:
        ReplicateError: naming the failed replicate's position *and
            seed* when any replicate crashes.
    """
    return fan_out(
        run_dca_replicate,
        specs,
        item="replicate",
        jobs=jobs,
        chunk_size=chunk_size,
        sink_tag="",
    )
