"""Sharded task server determinism: ``jobs=4`` must be byte-identical to
``jobs=1`` for the same shard count (both engines), the split must be
exact, and the position-ordered merge must be pure arithmetic over the
shard envelopes."""

import math
import os
from dataclasses import replace

import pytest

from repro.core import IterativeRedundancy, ProgressiveRedundancy
from repro.parallel import (
    ReplicateEnvelope,
    ReplicateError,
    combined_fingerprint,
    fingerprint_of,
    merge_shard_reports,
    release_shard_columns,
    replicate_seeds,
    run_dca_shards,
    shard_seeds,
    shard_specs,
    shm_available,
)
from repro.parallel.shards import _split

SMALL = dict(tasks=240, nodes=48, reliability=0.7, shards=4, seed=21)


def _specs(engine="columnar", **overrides):
    params = dict(SMALL, **overrides)
    return shard_specs(lambda: IterativeRedundancy(3), engine=engine, **params)


class TestShardSeeds:
    def test_deterministic(self):
        assert shard_seeds(5, 8) == shard_seeds(5, 8)

    def test_prefix_stable(self):
        # Seed i depends only on (base, i): a longer schedule extends the
        # shorter one, so changing the shard count never reshuffles work.
        assert shard_seeds(5, 8)[:4] == shard_seeds(5, 4)

    def test_disjoint_from_replicate_namespace(self):
        shards = set(shard_seeds(5, 16))
        replicates = set(replicate_seeds(5, 16))
        assert not shards & replicates

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError, match="at least one"):
            shard_seeds(5, 0)


class TestShardSplit:
    def test_split_is_exact_and_position_stable(self):
        for total in (7, 100, 101, 1_000_003):
            for shards in (1, 3, 8):
                parts = _split(total, shards)
                assert sum(parts) == total
                assert len(parts) == shards
                # Extra units go to the lowest positions.
                assert parts == sorted(parts, reverse=True)

    def test_spec_shares_cover_the_computation(self):
        specs = _specs()
        assert sum(spec.tasks for spec in specs) == SMALL["tasks"]
        assert sum(spec.nodes for spec in specs) == SMALL["nodes"]
        assert [spec.seed for spec in specs] == list(
            shard_seeds(SMALL["seed"], SMALL["shards"])
        )

    def test_rejects_more_shards_than_tasks(self):
        with pytest.raises(ValueError, match="tasks"):
            shard_specs(
                lambda: IterativeRedundancy(3),
                tasks=3,
                nodes=100,
                reliability=0.7,
                shards=4,
                seed=1,
            )

    def test_rejects_more_shards_than_nodes(self):
        with pytest.raises(ValueError, match="nodes"):
            shard_specs(
                lambda: IterativeRedundancy(3),
                tasks=100,
                nodes=3,
                reliability=0.7,
                shards=4,
                seed=1,
            )

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            _specs(engine="quantum")


class TestJobsEquivalence:
    @pytest.mark.parametrize("engine", ["columnar", "des"])
    def test_fanned_equals_serial(self, engine):
        serial = run_dca_shards(_specs(engine=engine), jobs=1)
        fanned = run_dca_shards(_specs(engine=engine), jobs=4)
        assert [e.seed for e in serial] == [e.seed for e in fanned]
        assert [e.metrics for e in serial] == [e.metrics for e in fanned]
        assert combined_fingerprint(serial) == combined_fingerprint(fanned)
        assert merge_shard_reports(serial) == merge_shard_reports(fanned)

    def test_merge_is_order_free(self):
        envelopes = run_dca_shards(_specs(), jobs=1)
        shuffled = list(reversed(envelopes))
        assert merge_shard_reports(shuffled) == merge_shard_reports(envelopes)


class TestMergeArithmetic:
    def test_extensive_counters_sum_exactly(self):
        envelopes = run_dca_shards(_specs(), jobs=1)
        merged = merge_shard_reports(envelopes)
        metrics = [e.metrics for e in envelopes]
        assert merged["tasks"] == sum(m["tasks"] for m in metrics)
        assert merged["tasks_correct"] == sum(m["tasks_correct"] for m in metrics)
        assert merged["total_jobs"] == sum(m["total_jobs"] for m in metrics)
        assert merged["reliability"] == merged["tasks_correct"] / merged["tasks"]
        assert merged["cost_factor"] == merged["total_jobs"] / merged["tasks"]
        assert merged["makespan"] == max(m["makespan"] for m in metrics)
        assert merged["shards"] == len(envelopes)
        assert merged["checksum"] == combined_fingerprint(envelopes)

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError, match="zero"):
            merge_shard_reports([])

    def test_single_shard_merge_matches_shard(self):
        envelopes = run_dca_shards(
            shard_specs(
                lambda: ProgressiveRedundancy(5),
                tasks=200,
                nodes=40,
                reliability=0.7,
                shards=1,
                seed=8,
            ),
            jobs=1,
        )
        merged = merge_shard_reports(envelopes)
        shard = envelopes[0].metrics
        assert merged["reliability"] == shard["reliability"]
        assert merged["cost_factor"] == pytest.approx(shard["cost_factor"])
        assert merged["mean_waves"] == pytest.approx(shard["mean_waves"])


def _fake_envelope(position, **metrics):
    base = dict(
        strategy="iterative(d=3)",
        tasks=0,
        tasks_correct=0,
        total_jobs=0,
        jobs_timed_out=0,
        max_jobs=0,
        mean_response_time=math.nan,
        max_response_time=math.nan,
        mean_waves=math.nan,
        makespan=0.0,
    )
    base.update(metrics)
    return ReplicateEnvelope(
        position=position, seed=position, metrics=base, fingerprint=fingerprint_of(base)
    )


class TestZeroTaskMergeGuards:
    """Shards can complete zero tasks under a horizon; the weighted
    averages must neither divide by zero nor let a nan-valued empty
    shard poison the live shards' aggregates."""

    def test_all_empty_shards_merge_to_nan_not_crash(self):
        merged = merge_shard_reports([_fake_envelope(0), _fake_envelope(1)])
        assert merged["tasks"] == 0
        assert math.isnan(merged["reliability"])
        assert math.isnan(merged["cost_factor"])
        assert math.isnan(merged["mean_response_time"])
        assert math.isnan(merged["max_response_time"])
        assert math.isnan(merged["mean_waves"])
        assert merged["max_jobs"] == 0

    def test_empty_shard_does_not_poison_live_aggregates(self):
        live = _fake_envelope(
            0,
            tasks=100,
            tasks_correct=90,
            total_jobs=300,
            max_jobs=9,
            mean_response_time=2.0,
            max_response_time=5.0,
            mean_waves=1.5,
            makespan=40.0,
        )
        merged = merge_shard_reports([live, _fake_envelope(1)])
        assert merged["tasks"] == 100
        assert merged["reliability"] == 0.9
        assert merged["cost_factor"] == 3.0
        assert merged["mean_response_time"] == 2.0
        assert merged["max_response_time"] == 5.0
        assert merged["mean_waves"] == 1.5
        assert merged["max_jobs"] == 9

    def test_real_zero_completion_shards_under_tiny_horizon(self):
        # duration_low defaults to 0.5: nothing can finish by t=0.1, so
        # every shard reports zero completed tasks.
        envelopes = run_dca_shards(_specs(max_time=0.1), jobs=1)
        merged = merge_shard_reports(envelopes)
        assert merged["tasks"] == 0
        assert merged["tasks_submitted"] == SMALL["tasks"]
        assert math.isnan(merged["reliability"])
        assert math.isnan(merged["cost_factor"])
        assert merged["makespan"] == 0.1


class TestRegimeShards:
    """Churn / spot-check / deadline configs flow through the shard
    layer: rates split with the pool, regime counters merge by sum, and
    ``jobs=4`` stays byte-identical to ``jobs=1``."""

    def test_churn_rates_scale_with_node_share(self):
        specs = _specs(arrival_rate=6.0, departure_rate=3.0)
        shares = [spec.nodes for spec in specs]
        arrivals = [dict(spec.overrides)["arrival_rate"] for spec in specs]
        departures = [dict(spec.overrides)["departure_rate"] for spec in specs]
        assert sum(arrivals) == pytest.approx(6.0)
        assert sum(departures) == pytest.approx(3.0)
        for share, rate in zip(shares, arrivals):
            assert rate == pytest.approx(6.0 * share / SMALL["nodes"])

    def test_other_overrides_pass_through_unscaled(self):
        specs = _specs(spot_check_rate=0.2, max_time=50.0)
        for spec in specs:
            overrides = dict(spec.overrides)
            assert overrides["spot_check_rate"] == 0.2
            assert overrides["max_time"] == 50.0

    def test_regime_keys_absent_outside_their_regime(self):
        baseline = run_dca_shards(_specs(), jobs=1)
        for envelope in baseline:
            for key in ("nodes_joined", "spot_checks", "tasks_submitted"):
                assert key not in envelope.metrics

    def test_regime_counters_merge_by_sum(self):
        envelopes = run_dca_shards(
            _specs(arrival_rate=4.0, departure_rate=4.0, spot_check_rate=0.1),
            jobs=1,
        )
        merged = merge_shard_reports(envelopes)
        metrics = [e.metrics for e in envelopes]
        for key in ("nodes_joined", "nodes_departed", "spot_checks"):
            assert merged[key] == sum(m[key] for m in metrics)
        assert merged["spot_checks"] > 0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(arrival_rate=4.0, departure_rate=4.0),
            dict(spot_check_rate=0.2),
            dict(max_time=5.0),
        ],
    )
    def test_fanned_equals_serial_per_regime(self, overrides):
        serial = run_dca_shards(_specs(**overrides), jobs=1)
        fanned = run_dca_shards(_specs(**overrides), jobs=4)
        assert [e.metrics for e in serial] == [e.metrics for e in fanned]
        assert combined_fingerprint(serial) == combined_fingerprint(fanned)


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
class TestShmTransport:
    """transport='shm' ships columns out of band: fingerprints stay
    identical to the pickle transport, jobs=N to jobs=1, and the
    incremental column reduction agrees with the metric-derived merge."""

    @pytest.mark.parametrize("engine", ["columnar", "des"])
    def test_fingerprints_match_pickle_transport(self, engine):
        pickled = run_dca_shards(_specs(engine=engine), jobs=1)
        shipped = run_dca_shards(_specs(engine=engine), jobs=1, transport="shm")
        assert [e.fingerprint for e in pickled] == [e.fingerprint for e in shipped]
        merged = merge_shard_reports(shipped)
        columns = merged.pop("columns")
        assert merged == merge_shard_reports(pickled)
        assert columns["tasks"] == merged["tasks"]
        assert columns["tasks_correct"] == merged["tasks_correct"]
        assert columns["total_jobs"] == merged["total_jobs"]
        assert columns["max_jobs"] == merged["max_jobs"]
        assert columns["mean_response_time"] == pytest.approx(
            merged["mean_response_time"]
        )

    def test_fanned_equals_serial_over_shm(self):
        serial = merge_shard_reports(run_dca_shards(_specs(), jobs=1, transport="shm"))
        fanned = merge_shard_reports(run_dca_shards(_specs(), jobs=4, transport="shm"))
        assert serial == fanned

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            run_dca_shards(_specs(), jobs=1, transport="carrier-pigeon")

    def test_release_without_merge_cleans_up(self):
        envelopes = run_dca_shards(_specs(), jobs=2, transport="shm")
        release_shard_columns(envelopes)
        # Idempotent: the segments are already gone.
        release_shard_columns(envelopes)

    def test_pickle_transport_carries_no_columns(self):
        for envelope in run_dca_shards(_specs(), jobs=1):
            assert envelope.columns is None

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to inspect")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashed_shard_leaks_no_segment(self, jobs):
        # Shards 0-2 finish and hand their columns over; shard 3 raises.
        # The finished shards' segments must not outlive the error.
        specs = _specs()
        specs[3] = replace(specs[3], strategy=_ExplodingStrategy(3))
        before = _shm_segments()
        with pytest.raises(ReplicateError, match="shard #3"):
            run_dca_shards(specs, jobs=jobs, transport="shm")
        assert _shm_segments() - before == set()


class _ExplodingStrategy(IterativeRedundancy):
    """Picklable strategy that detonates inside the shard worker."""

    def decide(self, vote):
        raise RuntimeError("injected shard failure")


def _shm_segments():
    """Names of the shared-memory segments currently alive."""
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
