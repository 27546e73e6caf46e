# reprolint: disable-file=RL003 -- byte-exact golden comparisons are the point
"""Golden same-seed digests: the optimization contract.

Each config pins two sha256 digests of one seeded DCA run:

* the uncapped :class:`~repro.obs.TelemetryRecorder` payload
  (``sha256(json.dumps(payload, sort_keys=True))``): every task and job
  span with its attrs, every decide event, and the metric snapshot;
* the full report (``DcaReport.to_json()``, per-task records included)
  of the same run with *no* recorder attached.

The first PR-3 goldens hashed a job-lifecycle trace log rendered from
the pre-optimization engine.  These digests were taken from the last
engine on which those trace goldens still passed, in the same session,
so they pin the same behaviour.  The hot-path optimizations -- tuple
heap keys, ``__slots__`` events, queue compaction, memoized confidence
kernels, decision tables, hoisted lookups -- are all required to be
*order-preserving*.  Any change to RNG draw order, event ordering, or
vote accounting shows up here as a digest mismatch.

If one of these ever fails, the change under test altered simulation
*behaviour*, not just speed; fix the change, do not refresh the digests.
(Deliberate semantic changes to the DCA model would need new goldens --
and a very good reason.)
"""

import hashlib
import json

import pytest

from repro.core import (
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.dca import DcaConfig, DcaSimulation, run_dca
from repro.obs import TelemetryRecorder
from repro.parallel import combined_fingerprint, dca_replicate_specs, run_dca_replicates

#: (name, strategy factory, DcaConfig kwargs, recorder payload sha256,
#: no-recorder report sha256).
GOLDENS = [
    (
        "iterative_d3",
        lambda: IterativeRedundancy(3),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "95f64d5f8e59d267931a54726937f095ca52c0080a32bb0a867cc569893486f6",
        "6e787d9eebc179d726f9aa120b4cd05357dd3e05d1f06d435670807cf047b198",
    ),
    (
        "progressive_k7",
        lambda: ProgressiveRedundancy(7),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "9a07de783858414d811a132e9fc6d660f5d1366ef26ebcb27e62b6abf90bc1d8",
        "f98237220b9b3ea94bd7c561faddfb27ccc1534fd487872c0dc2847097b5d19c",
    ),
    (
        "traditional_k5",
        lambda: TraditionalRedundancy(5),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "ace3a31a25bb24ea5fdc7097faf8adb79a19c65067a1ef10e02ced216b57bdb3",
        "56fb0158ccaabf898787a99d134659538fa81c63170fb48f064e5c876658cf28",
    ),
    (
        # Churn + silent nodes: exercises cancellation, compaction, and
        # the deadline path, where lazily-deleted events actually pile up.
        "iterative_d2_churn",
        lambda: IterativeRedundancy(2),
        dict(
            tasks=40,
            nodes=15,
            reliability=0.65,
            seed=99,
            arrival_rate=0.5,
            departure_rate=0.5,
            unresponsive_prob=0.1,
        ),
        "8c7c26f6cd7e663e46cffd7e12d3214ba2c903a26ffe4332de0e69c91a9fcd26",
        "ef24ea9da0052846ecb132184ca4d7470202d6961a0b9c8ad98d314c68ba32b1",
    ),
]


def payload_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def recorded_digest(factory, config_kwargs) -> str:
    """The uncapped recorder payload digest of one run."""
    recorder = TelemetryRecorder()
    DcaSimulation(DcaConfig(strategy=factory(), **config_kwargs), recorder=recorder).run()
    return payload_digest(recorder.as_payload())


def report_digest(factory, config_kwargs, recorder=None) -> str:
    """The full report digest of one run (no recorder by default)."""
    report = run_dca(DcaConfig(strategy=factory(), **config_kwargs), recorder=recorder)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize(
    "name,factory,config_kwargs,recorded,bare",
    GOLDENS,
    ids=[g[0] for g in GOLDENS],
)
def test_trace_fingerprint_matches_pre_optimization_golden(
    name, factory, config_kwargs, recorded, bare
):
    assert recorded_digest(factory, config_kwargs) == recorded, (
        f"{name}: same-seed recorder stream diverged from the golden "
        "engine -- an optimization changed simulation behaviour"
    )
    assert report_digest(factory, config_kwargs) == bare, (
        f"{name}: same-seed report diverged from the golden engine"
    )


def test_goldens_are_deterministic():
    """The digests are reproducible back to back in one process."""
    _, factory, config_kwargs, recorded, bare = GOLDENS[0]
    for _ in range(2):
        assert recorded_digest(factory, config_kwargs) == recorded
        assert report_digest(factory, config_kwargs) == bare


def test_parallel_replication_still_matches_serial():
    """``jobs=4 == jobs=1`` survives the hot-path rewrite end to end."""
    params = dict(tasks=60, nodes=25, reliability=0.7, replications=3, seed=1234)
    serial = run_dca_replicates(
        dca_replicate_specs(lambda: IterativeRedundancy(3), **params), jobs=1
    )
    fanned = run_dca_replicates(
        dca_replicate_specs(lambda: IterativeRedundancy(3), **params), jobs=4
    )
    assert combined_fingerprint(serial) == combined_fingerprint(fanned)
