"""Tests for the columnar batch engine (:mod:`repro.dca.columnar`).

The engine trades the object DES for struct-of-arrays wave batching, so
it cannot be byte-identical to :func:`run_dca` -- but it must be (a)
deterministic given the seed, (b) statistically indistinguishable from
the DES on the paper's measures, (c) honest about the regime it
supports, (d) faithful to the strategies' decide() semantics (the
vectorized deciders are cross-checked against the per-task
``VoteState`` fallback), and (e) at least 50 times the DES's
throughput, the reason it exists.  The regime kernels are checked against scalar
oracles on generated arrays; whole-run output is pinned by digest in
the columnar rows of ``tests/determinism/table.py``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.bench.timing import time_callable
from repro.core import (
    ComplexIterativeRedundancy,
    CredibilityManager,
    CredibilityStrategy,
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.core.distributions import BetaReliability
from repro.core.runner import WaveLimitExceeded
from repro.core.strategy import RedundancyStrategy
from repro.core.types import Decision
from repro.dca import (
    ByzantineCollusion,
    ColumnarUnsupported,
    DcaConfig,
    NonColludingFailures,
    run_columnar_dca,
    run_columnar_dca_columns,
    run_dca,
)
from repro.dca.columnar import (
    _DECIDERS,
    _decide_fallback,
    _horizon_cut,
    _pool_compact,
    _spot_tally,
)
from repro.obs import TelemetryRecorder


def _config(strategy, **overrides):
    params = dict(tasks=2_000, nodes=300, reliability=0.7, seed=17)
    params.update(overrides)
    return DcaConfig(strategy=strategy, **params)


# Scalar oracles for the regime kernels: one Python step per row, the
# plain reading of what each kernel must compute.


def _pool_compact_oracle(reliability, speed, ids, keep, new_rel, new_speed, new_ids):
    """Keep the rows where ``keep`` holds, then append the arrivals."""
    out_rel = [float(reliability[i]) for i in range(reliability.shape[0]) if keep[i]]
    out_speed = [float(speed[i]) for i in range(speed.shape[0]) if keep[i]]
    out_ids = [int(ids[i]) for i in range(ids.shape[0]) if keep[i]]
    for i in range(new_rel.shape[0]):
        out_rel.append(float(new_rel[i]))
        out_speed.append(float(new_speed[i]))
        out_ids.append(int(new_ids[i]))
    return (
        np.asarray(out_rel, dtype=np.float64),
        np.asarray(out_speed, dtype=np.float64),
        np.asarray(out_ids, dtype=np.int64),
    )


def _spot_tally_oracle(ids, passed, passes, fails):
    """One tally step per check, like one manager call per check."""
    for i in range(ids.shape[0]):
        if passed[i]:
            passes[ids[i]] += 1
        else:
            fails[ids[i]] += 1


def _horizon_cut_oracle(start, span, horizon):
    """A wave is cut when its end lands strictly past the horizon."""
    out = np.zeros(start.shape[0], dtype=bool)
    for i in range(start.shape[0]):
        out[i] = start[i] + span[i] > horizon
    return out


_FLOATS = st.floats(0.0, 10.0, allow_nan=False)


class TestKernelOracles:
    """Each regime kernel equals its scalar oracle on generated arrays."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(_FLOATS, _FLOATS, st.booleans()), max_size=20),
        arrivals=st.lists(st.tuples(_FLOATS, _FLOATS), max_size=6),
    )
    @example(rows=[(0.5, 1.0, False)] * 4, arrivals=[])
    @example(rows=[(0.5, 1.0, False)] * 3, arrivals=[(0.9, 1.1)])
    def test_pool_compact_matches_oracle(self, rows, arrivals):
        reliability = np.asarray([row[0] for row in rows], dtype=np.float64)
        speed = np.asarray([row[1] for row in rows], dtype=np.float64)
        keep = np.asarray([row[2] for row in rows], dtype=bool)
        ids = np.arange(len(rows), dtype=np.int64)
        new_rel = np.asarray([a[0] for a in arrivals], dtype=np.float64)
        new_speed = np.asarray([a[1] for a in arrivals], dtype=np.float64)
        new_ids = np.arange(len(rows), len(rows) + len(arrivals), dtype=np.int64)
        args = (reliability, speed, ids, keep, new_rel, new_speed, new_ids)
        for got, want in zip(_pool_compact(*args), _pool_compact_oracle(*args)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        checks=st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=40),
        prior=st.lists(st.integers(0, 3), min_size=10, max_size=10),
    )
    def test_spot_tally_matches_oracle_with_duplicate_ids(self, checks, prior):
        ids = np.asarray([check[0] for check in checks], dtype=np.int64)
        passed = np.asarray([check[1] for check in checks], dtype=bool)
        passes = np.asarray(prior[:5], dtype=np.int64)
        fails = np.asarray(prior[5:], dtype=np.int64)
        want_passes, want_fails = passes.copy(), fails.copy()
        _spot_tally(ids, passed, passes, fails)
        _spot_tally_oracle(ids, passed, want_passes, want_fails)
        assert np.array_equal(passes, want_passes)
        assert np.array_equal(fails, want_fails)

    @settings(max_examples=60, deadline=None)
    @given(
        waves=st.lists(st.tuples(_FLOATS, _FLOATS), min_size=1, max_size=20),
        pick=st.integers(0, 19),
        horizon=st.one_of(st.none(), _FLOATS),
    )
    def test_horizon_cut_matches_oracle(self, waves, pick, horizon):
        start = np.asarray([wave[0] for wave in waves], dtype=np.float64)
        span = np.asarray([wave[1] for wave in waves], dtype=np.float64)
        if horizon is None:
            # A wave ending exactly at the horizon still resolves.
            horizon = float(start[pick % len(waves)] + span[pick % len(waves)])
            assert not _horizon_cut(start, span, horizon)[pick % len(waves)]
        got = _horizon_cut(start, span, horizon)
        assert np.array_equal(got, _horizon_cut_oracle(start, span, horizon))


class TestDeterminism:
    def test_same_seed_same_report(self):
        first = run_columnar_dca(_config(IterativeRedundancy(3)))
        second = run_columnar_dca(_config(IterativeRedundancy(3)))
        assert first == second
        assert first.as_dict() == second.as_dict()

    def test_different_seeds_differ(self):
        first = run_columnar_dca(_config(IterativeRedundancy(3), seed=1))
        second = run_columnar_dca(_config(IterativeRedundancy(3), seed=2))
        assert first.as_dict() != second.as_dict()

    def test_heterogeneous_pool_is_deterministic(self):
        config = _config(
            IterativeRedundancy(3),
            reliability=BetaReliability.with_mean(0.7),
            speed_spread=0.5,
        )
        assert run_columnar_dca(config) == run_columnar_dca(config)


class TestCrossValidation:
    """The engine must agree with the DES on the paper's measures.

    Tolerances are a few standard errors at these sizes; both runs are
    seeded, so the assertion is deterministic (no flakes) -- it would
    only move if either engine's semantics changed.
    """

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: IterativeRedundancy(3),
            lambda: ProgressiveRedundancy(7),
            lambda: TraditionalRedundancy(7),
            lambda: ComplexIterativeRedundancy(0.7, 0.95),
        ],
    )
    def test_matches_des_statistically(self, strategy_factory):
        columnar = run_columnar_dca(_config(strategy_factory(), tasks=4_000))
        des = run_dca(_config(strategy_factory(), tasks=4_000))
        assert columnar.system_reliability == pytest.approx(
            des.system_reliability, abs=0.02
        )
        assert columnar.cost_factor == pytest.approx(des.cost_factor, rel=0.05)
        assert columnar.as_dict()["mean_waves"] == pytest.approx(
            des.as_dict()["mean_waves"], rel=0.05
        )

    def test_report_dict_keys_match_des(self):
        columnar = run_columnar_dca(_config(IterativeRedundancy(3)))
        des = run_dca(_config(IterativeRedundancy(3)))
        assert set(columnar.as_dict()) == set(des.as_dict())


class TestDeciderEquivalence:
    """Vectorized deciders == per-task VoteState/decide() fallback."""

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: IterativeRedundancy(3),
            lambda: ProgressiveRedundancy(7),
            lambda: TraditionalRedundancy(7),
            lambda: ComplexIterativeRedundancy(0.7, 0.95),
        ],
    )
    def test_vectorized_matches_fallback(self, strategy_factory):
        strategy = strategy_factory()
        decider = _DECIDERS[type(strategy)]
        rng = np.random.default_rng(5)
        a = rng.integers(0, 9, size=500)
        b = rng.integers(0, 9, size=500)
        fast_accept, fast_value, fast_more = decider(strategy, a, b)
        slow_accept, slow_value, slow_more = _decide_fallback(strategy, a, b)
        # The engine consumes value only where accepted and more only
        # where not; outside those masks the columns are don't-cares.
        assert np.array_equal(np.asarray(fast_accept), slow_accept)
        accept = slow_accept
        assert np.array_equal(np.asarray(fast_value)[accept], slow_value[accept])
        assert np.array_equal(
            np.asarray(fast_more)[~accept], slow_more[~accept]
        )


class TestSupportedRegime:
    def test_rejects_non_colluding_failures(self):
        with pytest.raises(ColumnarUnsupported, match="colluding"):
            run_columnar_dca(
                _config(
                    IterativeRedundancy(3),
                    failure_model=NonColludingFailures(value_space=8),
                )
            )

    def test_rejects_node_aware_strategies(self):
        with pytest.raises(ColumnarUnsupported, match="node-aware"):
            run_columnar_dca(_config(CredibilityStrategy(CredibilityManager())))

    def test_accepts_byzantine_collusion(self):
        report = run_columnar_dca(
            _config(
                IterativeRedundancy(3),
                failure_model=ByzantineCollusion(),
                unresponsive_prob=0.1,
                timeout=1.2,
            )
        )
        assert report.tasks_submitted == 2_000
        assert report.jobs_timed_out > 0


class TestChurnRegime:
    """Wave-boundary churn: statistically the DES's continuous churn."""

    def _config(self, **overrides):
        params = dict(
            tasks=2_000,
            nodes=400,
            arrival_rate=2.0,
            departure_rate=2.0,
            unresponsive_prob=0.1,
            seed=7,
        )
        params.update(overrides)
        return _config(IterativeRedundancy(3), **params)

    def test_deterministic_and_counts_churn(self):
        first = run_columnar_dca(self._config())
        second = run_columnar_dca(self._config())
        assert first == second
        assert first.nodes_joined > 0
        assert first.nodes_departed > 0

    def test_matches_des_statistically(self):
        # Reliability, cost, and wave counts are contention-insensitive
        # (assumption 1: contention delays *when* jobs run, not what they
        # report).  Makespans differ under contention -- the DES queues
        # on the 400-node pool -- so the churn *totals* differ too; what
        # must match is the churn flux per unit of simulated time.
        columnar = run_columnar_dca(self._config())
        des = run_dca(self._config())
        assert columnar.system_reliability == pytest.approx(
            des.system_reliability, abs=0.03
        )
        assert columnar.cost_factor == pytest.approx(des.cost_factor, rel=0.05)
        assert columnar.as_dict()["mean_waves"] == pytest.approx(
            des.as_dict()["mean_waves"], rel=0.05
        )
        for report in (columnar, des):
            assert report.nodes_joined / report.makespan == pytest.approx(2.0, rel=0.3)
            assert report.nodes_departed / report.makespan == pytest.approx(
                2.0, rel=0.3
            )

    def test_churn_streams_do_not_perturb_legacy_draws(self):
        # Spawn seeds are stateless name hashes: a no-churn run after the
        # churn feature landed draws exactly what it drew before it.
        baseline = run_columnar_dca(_config(IterativeRedundancy(3)))
        explicit = run_columnar_dca(
            _config(IterativeRedundancy(3), arrival_rate=0.0, departure_rate=0.0)
        )
        assert baseline == explicit

    def test_heterogeneous_churn_pool(self):
        config = self._config(
            tasks=400,
            reliability=BetaReliability.with_mean(0.7),
            speed_spread=0.4,
        )
        assert run_columnar_dca(config) == run_columnar_dca(config)


class TestSpotCheckRegime:
    """Spot-check diversion and per-node tallies, taskserver semantics."""

    def _config(self, **overrides):
        params = dict(tasks=2_000, nodes=300, spot_check_rate=0.2, seed=11)
        params.update(overrides)
        return _config(IterativeRedundancy(3), **params)

    def test_deterministic_and_counts_checks(self):
        first = run_columnar_dca(self._config())
        second = run_columnar_dca(self._config())
        assert first == second
        assert first.spot_checks > 0
        # reliability 0.7: plenty of failed checks -> blacklist entries
        assert 0 < first.nodes_blacklisted <= 300

    def test_spot_stream_does_not_perturb_task_outcomes(self):
        # All spot draws come from the dedicated stream, so enabling
        # spot-checks changes overhead counters but no task verdict.
        baseline = run_columnar_dca(_config(IterativeRedundancy(3)))
        spotted = run_columnar_dca(self._config(seed=17, spot_check_rate=0.3))
        assert spotted.tasks_correct == baseline.tasks_correct
        assert spotted.total_jobs == baseline.total_jobs
        assert spotted.mean_response_time == baseline.mean_response_time

    def test_zero_rate_never_draws_the_spot_stream(self):
        baseline = run_columnar_dca(_config(IterativeRedundancy(3)))
        explicit = run_columnar_dca(_config(IterativeRedundancy(3), spot_check_rate=0.0))
        assert baseline == explicit

    def test_matches_des_statistically(self):
        # Contention-free sizing (nodes >> concurrent jobs): the DES's
        # queueing delays vanish and the engines are comparable on all
        # measures, including the spot-check volume.
        config = dict(tasks=400, nodes=6_000, spot_check_rate=0.2, seed=11)
        columnar = run_columnar_dca(self._config(**config))
        des = run_dca(self._config(**config))
        assert columnar.system_reliability == pytest.approx(
            des.system_reliability, abs=0.05
        )
        assert columnar.cost_factor == pytest.approx(des.cost_factor, rel=0.1)
        assert columnar.spot_checks == pytest.approx(des.spot_checks, rel=0.2)

    def test_tally_matches_credibility_manager_replay(self):
        # The column tallies are the exact analogue of one
        # CredibilityManager.spot_check call per check.
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 40, size=500).astype(np.int64)
        passed = rng.random(500) < 0.8
        passes = np.zeros(40, dtype=np.int64)
        fails = np.zeros(40, dtype=np.int64)
        _spot_tally(ids, passed, passes, fails)
        manager = CredibilityManager()
        for node_id, ok in zip(ids.tolist(), passed.tolist()):
            manager.spot_check(node_id, passed=ok)
        assert manager.spot_checks_issued == 500
        assert int((fails > 0).sum()) == manager.blacklist_events
        for node_id in range(40):
            assert bool(fails[node_id] > 0) == manager.is_blacklisted(node_id)


class TestMaxTimeRegime:
    """Deadline horizons with partial-wave truncation, DES clock rules."""

    def _config(self, **overrides):
        # Contention-free sizing, so completion counts are comparable
        # with the DES (queueing would otherwise dominate who finishes).
        params = dict(tasks=400, nodes=6_000, max_time=2.8, seed=2)
        params.update(overrides)
        return _config(IterativeRedundancy(3), **params)

    def test_deterministic_and_truncates(self):
        first = run_columnar_dca(self._config())
        second = run_columnar_dca(self._config())
        assert first == second
        assert 0 < first.tasks_completed < first.tasks_submitted
        assert first.makespan == 2.8

    def test_generous_horizon_is_a_noop(self):
        baseline = run_columnar_dca(_config(IterativeRedundancy(3)))
        bounded = run_columnar_dca(_config(IterativeRedundancy(3), max_time=1e9))
        assert bounded.makespan == baseline.makespan
        assert bounded.tasks_completed == baseline.tasks_completed
        assert bounded.as_dict() == baseline.as_dict()

    def test_nothing_completes_before_a_tiny_horizon(self):
        import math

        report = run_columnar_dca(self._config(max_time=0.1))
        # duration_low is 0.5: no wave can land by 0.1.
        assert report.tasks_completed == 0
        assert report.makespan == 0.1
        assert math.isnan(report.mean_response_time)
        assert report.total_jobs == 0
        assert report.max_jobs_per_task == 0

    def test_matches_des_statistically(self):
        for seed in (1, 2, 3):
            columnar = run_columnar_dca(self._config(seed=seed))
            des = run_dca(self._config(seed=seed))
            assert columnar.tasks_completed == pytest.approx(
                des.tasks_completed, rel=0.15
            )
            assert columnar.system_reliability == pytest.approx(
                des.system_reliability, abs=0.05
            )
            assert columnar.makespan == des.makespan == 2.8

    def test_timeouts_with_horizon_match_des_statistically(self):
        config = dict(max_time=4.2, unresponsive_prob=0.2, timeout=3.0, seed=2)
        columnar = run_columnar_dca(self._config(**config))
        des = run_dca(self._config(**config))
        assert columnar.jobs_timed_out > 0
        assert columnar.jobs_timed_out == pytest.approx(des.jobs_timed_out, rel=0.15)
        assert columnar.tasks_completed == pytest.approx(des.tasks_completed, rel=0.15)


class TestResultColumns:
    """run_columnar_dca_columns: the shm transport's raw material."""

    def test_columns_are_consistent_with_the_report(self):
        report, columns = run_columnar_dca_columns(_config(IterativeRedundancy(3)))
        assert report == run_columnar_dca(_config(IterativeRedundancy(3)))
        assert set(columns) == {"response_time", "jobs_used", "waves", "correct"}
        for column in columns.values():
            assert column.shape[0] == report.tasks_completed
        assert int(columns["correct"].sum()) == report.tasks_correct
        assert int(columns["jobs_used"].sum()) == report.total_jobs
        assert int(columns["jobs_used"].max()) == report.max_jobs_per_task
        assert float(columns["response_time"].max()) == report.max_response_time
        assert float(
            columns["response_time"].sum()
        ) / report.tasks_completed == pytest.approx(report.mean_response_time)

    def test_columns_cover_completed_tasks_only_under_horizon(self):
        config = _config(IterativeRedundancy(3), tasks=400, nodes=6_000, max_time=2.8)
        report, columns = run_columnar_dca_columns(config)
        assert 0 < report.tasks_completed < 400
        assert columns["response_time"].shape[0] == report.tasks_completed


class TestEdgeRegimes:
    """Edge regimes stay inside the engine's contract: the vectorized
    decider path and the per-task ``_decide_fallback`` path must
    produce byte-identical reports (popping the strategy from
    ``_DECIDERS`` forces the fallback).  The configs the engine must
    reject are covered by ``TestSupportedRegime`` and, for every entry
    point, by ``test_columnar_regime_guards.py``."""

    def _fallback_identical(self, monkeypatch, config):
        fast = run_columnar_dca(config)
        monkeypatch.delitem(_DECIDERS, type(config.strategy))
        assert type(config.strategy) not in _DECIDERS
        slow = run_columnar_dca(config)
        assert fast == slow
        assert fast.as_dict() == slow.as_dict()
        return fast

    def test_zero_tasks_rejected_at_config(self):
        # The zero-task regime is rejected before either engine runs;
        # the report aggregations therefore never see empty columns.
        with pytest.raises(ValueError, match="task"):
            _config(IterativeRedundancy(3), tasks=0)

    def test_single_node_pool(self, monkeypatch):
        config = _config(
            IterativeRedundancy(3),
            tasks=200,
            nodes=1,
            reliability=BetaReliability.with_mean(0.7),
            speed_spread=0.3,
        )
        report = self._fallback_identical(monkeypatch, config)
        assert report.tasks_completed == 200

    def test_all_silent_heavy_wave(self, monkeypatch):
        config = _config(
            IterativeRedundancy(3),
            tasks=200,
            unresponsive_prob=0.95,
            timeout=1.2,
        )
        report = self._fallback_identical(monkeypatch, config)
        assert report.jobs_timed_out > 0
        assert report.tasks_completed == 200

    def test_initial_jobs_exceed_pool(self, monkeypatch):
        # initial_jobs() of 7 against a 2-node pool: the contention-free
        # pool model re-uses nodes within a wave rather than starving.
        config = _config(IterativeRedundancy(7), tasks=100, nodes=2)
        report = self._fallback_identical(monkeypatch, config)
        assert report.max_jobs_per_task >= 7


class TestReportAndTelemetry:
    def test_summary_mentions_strategy(self):
        report = run_columnar_dca(_config(IterativeRedundancy(3)))
        assert "iterative" in report.summary()

    def test_recorder_receives_aggregates(self):
        recorder = TelemetryRecorder()
        report = run_columnar_dca(_config(IterativeRedundancy(3)), recorder=recorder)
        payload = recorder.as_payload()
        assert payload["metrics"]
        assert report.total_jobs > report.tasks_submitted

    def test_recorder_does_not_perturb_results(self):
        bare = run_columnar_dca(_config(IterativeRedundancy(3)))
        recorded = run_columnar_dca(
            _config(IterativeRedundancy(3)), recorder=TelemetryRecorder()
        )
        assert bare == recorded


class _Forever(RedundancyStrategy):
    """Never accepts: the runaway the wave limit guards against."""

    name = "forever"

    def initial_jobs(self):
        return 1

    def decide(self, vote):
        return Decision.dispatch(1)


class TestWaveLimit:
    @pytest.mark.parametrize("run", [run_columnar_dca, run_columnar_dca_columns])
    @pytest.mark.parametrize("max_waves", [0, -1])
    def test_rejects_a_limit_below_one(self, run, max_waves):
        with pytest.raises(ValueError, match="max_waves"):
            run(_config(IterativeRedundancy(3), tasks=10), max_waves=max_waves)

    @pytest.mark.parametrize("run", [run_columnar_dca, run_columnar_dca_columns])
    def test_runaway_raises_wave_limit_exceeded_naming_the_strategy(self, run):
        with pytest.raises(WaveLimitExceeded, match="forever exceeded 5"):
            run(_config(_Forever(), tasks=10), max_waves=5)

    def test_wave_limit_exceeded_is_a_runtime_error(self):
        with pytest.raises(RuntimeError):
            run_columnar_dca(_config(_Forever(), tasks=10), max_waves=1)

    def test_a_run_within_the_limit_is_unchanged(self):
        config = _config(TraditionalRedundancy(7), tasks=50)
        assert run_columnar_dca(config, max_waves=1) == run_columnar_dca(config)


#: Minimum ratio of the columnar engine's completed tasks per second to
#: the DES's, in every regime: speed is the engine's one guarantee beyond
#: the DES, and the reason it exists.
DES_SPEEDUP_FLOOR = 50.0

#: Each regime's own floor: half the lowest of ten readings on a 2-vCPU
#: host (churn 86-139x, spot 97-130x, deadline 308-389x), and never
#: below DES_SPEEDUP_FLOOR.  The horizon case runs far above the shared
#: floor, so only its own floor notices a 2x slowdown there.
_SPEEDUP_FLOORS = {"churn": 50.0, "spot": 50.0, "deadline": 150.0}

#: Regime name -> config overrides as a function of the pool size.  Churn
#: rates scale with the pool (a bigger pool churns more per unit time at
#: the same per-node hazard); the spot-check gate and the horizon are
#: per-assignment and per-run quantities and stay fixed.
_SPEED_REGIMES = {
    "churn": lambda nodes: dict(arrival_rate=nodes * 0.01, departure_rate=nodes * 0.01),
    "spot": lambda nodes: dict(spot_check_rate=0.05),
    "deadline": lambda nodes: dict(max_time=6.0),
}


class TestSpeedupOverDes:
    @pytest.mark.parametrize("regime", sorted(_SPEED_REGIMES))
    def test_columnar_beats_the_des_by_the_floor(self, regime):
        """Completed tasks per second, best of 3 on each side: the
        columnar engine at 10^5 tasks on 10^4 nodes against the DES at
        2,000 tasks on a pool scaled to match.  Throughputs divide, so
        the legs need not be the same size; completed tasks count
        because under a horizon both engines stop with work undone.  The
        ratio also falls when the DES gets faster: a DES speedup that
        trips the floor calls for a new floor, not a slower DES."""

        def tasks_per_second(run, tasks, nodes):
            config = _config(
                IterativeRedundancy(3), tasks=tasks, nodes=nodes, seed=0,
                **_SPEED_REGIMES[regime](nodes),
            )
            stats, report = time_callable(lambda: run(config), repeats=3, warmup=0)
            return report.tasks_completed / stats.best

        columnar = tasks_per_second(run_columnar_dca, 100_000, 10_000)
        des = tasks_per_second(run_dca, 2_000, 200)
        floor = _SPEEDUP_FLOORS[regime]
        assert floor >= DES_SPEEDUP_FLOOR
        assert columnar / des >= floor, (
            f"{regime}: columnar throughput x{columnar / des:.1f} the DES's, "
            f"below the x{floor:.0f} floor"
        )
