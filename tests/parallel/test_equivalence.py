"""Determinism equivalence: ``jobs=4`` must be indistinguishable from
``jobs=1`` for every technique, per replicate and in aggregate, and a
crashing worker must surface a clear error naming the replicate seed."""

import pytest

from repro.core import (
    AdaptiveReplication,
    CredibilityManager,
    CredibilityStrategy,
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.parallel import (
    ReplicateError,
    VolunteerProblemSpec,
    aggregate_metrics,
    combined_fingerprint,
    dca_replicate_specs,
    run_dca_replicates,
    run_volunteer_problems,
)
from repro.volunteer import PlanetLabTestbed

#: (name, strategy factory, DcaConfig overrides): the paper's three
#: techniques, plus two strategies that carry per-node state across
#: tasks, which each replicate must build for itself.  Spot checks feed
#: the credibility manager's per-node records.
SWEEP = [
    ("IR", lambda: IterativeRedundancy(2), {}),
    ("PR", lambda: ProgressiveRedundancy(5), {}),
    ("TR", lambda: TraditionalRedundancy(3), {}),
    (
        "CRED",
        lambda: CredibilityStrategy(CredibilityManager(), target=0.97),
        dict(spot_check_rate=0.1),
    ),
    ("ADAPT", lambda: AdaptiveReplication(), {}),
]

SMALL = dict(tasks=120, nodes=60, reliability=0.7, replications=3, seed=9)


@pytest.mark.parametrize("name,factory,overrides", SWEEP, ids=[s[0] for s in SWEEP])
def test_parallel_equals_serial(name, factory, overrides):
    serial = run_dca_replicates(dca_replicate_specs(factory, **SMALL, **overrides), jobs=1)
    fanned = run_dca_replicates(dca_replicate_specs(factory, **SMALL, **overrides), jobs=4)
    # Same seeds in the same order...
    assert [e.seed for e in serial] == [e.seed for e in fanned]
    # ...identical per-replicate metrics and fingerprints...
    assert [e.metrics for e in serial] == [e.metrics for e in fanned]
    assert combined_fingerprint(serial) == combined_fingerprint(fanned)
    # ...and identical aggregates.
    assert aggregate_metrics(serial) == aggregate_metrics(fanned)


def test_parallel_equals_serial_with_tiny_chunks():
    factory = SWEEP[0][1]
    serial = run_dca_replicates(dca_replicate_specs(factory, **SMALL), jobs=1)
    fanned = run_dca_replicates(
        dca_replicate_specs(factory, **SMALL), jobs=4, chunk_size=1
    )
    assert combined_fingerprint(serial) == combined_fingerprint(fanned)


def test_volunteer_problems_parallel_equals_serial():
    # Figure 5(b)'s fan-out.  The serial run goes first, so forked pool
    # workers inherit whatever module state it left behind: a worker
    # that reads or mutates such state reports different metrics.
    testbed = PlanetLabTestbed(nodes=40)
    specs = [
        VolunteerProblemSpec(seed=seed, strategy=strategy, testbed=testbed, sat_vars=8, tasks=12)
        for seed, strategy in (
            (1, IterativeRedundancy(2)),
            (2, TraditionalRedundancy(3)),
            (3, ProgressiveRedundancy(3)),
        )
    ]
    serial = run_volunteer_problems(specs, jobs=1)
    fanned = run_volunteer_problems(specs, jobs=2)
    assert [e.fingerprint for e in serial] == [e.fingerprint for e in fanned]
    assert combined_fingerprint(serial) == combined_fingerprint(fanned)


class ExplodingStrategy(IterativeRedundancy):
    """Picklable strategy that detonates inside the worker process."""

    def decide(self, vote):
        raise RuntimeError("injected replicate failure")


@pytest.mark.parametrize("jobs", [1, 4])
def test_worker_crash_names_replicate_seed(jobs):
    specs = dca_replicate_specs(
        lambda: ExplodingStrategy(2),
        tasks=10,
        nodes=10,
        reliability=0.7,
        replications=2,
        seed=5,
    )
    with pytest.raises(ReplicateError) as excinfo:
        run_dca_replicates(specs, jobs=jobs)
    message = str(excinfo.value)
    assert excinfo.value.position == 0
    assert f"seed {specs[0].seed}" in message
    assert "injected replicate failure" in message
    assert excinfo.value.error_type == "RuntimeError"
    # The worker's traceback travels home for debugging.
    assert "RuntimeError" in (excinfo.value.traceback_text or "")
