"""System-level tests: simulation vs closed forms, churn, correlated
failures, heterogeneous pools."""

import pytest

from repro.core import (
    IterativeRedundancy,
    NoRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
    analysis,
)
from repro.core.distributions import BetaReliability, TwoClassReliability
from repro.dca import CorrelatedFailures, DcaConfig, NonColludingFailures, run_dca


def run(strategy, **overrides):
    defaults = dict(strategy=strategy, tasks=4000, nodes=400, reliability=0.7, seed=21)
    defaults.update(overrides)
    return run_dca(DcaConfig(**defaults))


class TestAgreementWithClosedForms:
    """The simulation is an independent implementation; it must agree with
    Equations (1)-(6) within sampling error."""

    def test_traditional(self):
        report = run(TraditionalRedundancy(9))
        assert report.cost_factor == 9.0
        assert report.system_reliability == pytest.approx(
            analysis.traditional_reliability(0.7, 9), abs=0.02
        )

    def test_progressive(self):
        report = run(ProgressiveRedundancy(9))
        assert report.tasks_completed == 4000
        assert report.cost_factor == pytest.approx(
            analysis.progressive_cost(0.7, 9), rel=0.03
        )
        assert report.system_reliability == pytest.approx(
            analysis.progressive_reliability(0.7, 9), abs=0.02
        )

    def test_iterative(self):
        report = run(IterativeRedundancy(4))
        assert report.cost_factor == pytest.approx(
            analysis.iterative_cost(0.7, 4), rel=0.03
        )
        assert report.system_reliability == pytest.approx(
            analysis.iterative_reliability(0.7, 4), abs=0.02
        )

    def test_no_redundancy_reliability_is_r(self):
        report = run(NoRedundancy())
        assert report.cost_factor == 1.0
        assert report.system_reliability == pytest.approx(0.7, abs=0.02)

    def test_iterative_beats_progressive_beats_traditional(self):
        """The headline ordering at comparable cost (r = 0.7)."""
        tr = run(TraditionalRedundancy(9))
        pr = run(ProgressiveRedundancy(13))  # cost ~9.9
        ir = run(IterativeRedundancy(4))  # cost ~9.3
        assert pr.cost_factor < tr.cost_factor + 1.5
        assert ir.cost_factor < tr.cost_factor + 1.5
        assert ir.system_reliability > pr.system_reliability > tr.system_reliability


class TestChurn:
    def test_simulation_survives_heavy_churn(self):
        report = run(
            IterativeRedundancy(3),
            tasks=500,
            nodes=50,
            arrival_rate=2.0,
            departure_rate=2.0,
        )
        assert report.tasks_completed == 500
        assert report.nodes_joined > 0
        assert report.nodes_departed > 0

    def test_departing_nodes_lose_inflight_jobs(self):
        report = run(
            TraditionalRedundancy(3),
            tasks=300,
            nodes=30,
            departure_rate=3.0,
            arrival_rate=3.0,
            timeout=4.0,
        )
        assert report.jobs_timed_out > 0
        assert report.tasks_completed == 300

    def test_reliability_unaffected_by_churn(self):
        """Churn replaces nodes with same-distribution nodes, so system
        reliability should stay near the closed form."""
        report = run(
            IterativeRedundancy(4),
            tasks=2000,
            nodes=200,
            arrival_rate=1.0,
            departure_rate=1.0,
        )
        assert report.system_reliability == pytest.approx(
            analysis.iterative_reliability(0.7, 4), abs=0.03
        )


class TestHeterogeneousPools:
    def test_beta_pool_matches_mean_reliability_analysis(self):
        """Section 5.3: with random assignment, per-job failure probability
        is the pool mean, so the homogeneous analysis applies."""
        dist = BetaReliability.with_mean(0.7, concentration=8.0)
        report = run(IterativeRedundancy(4), reliability=dist, tasks=3000)
        assert report.system_reliability == pytest.approx(
            analysis.iterative_reliability(0.7, 4), abs=0.03
        )

    def test_two_class_pool(self):
        dist = TwoClassReliability(good_r=0.95, faulty_r=0.0, faulty_fraction=0.25)
        report = run(TraditionalRedundancy(5), reliability=dist, tasks=2000)
        expected = analysis.traditional_reliability(dist.mean(), 5)
        assert report.system_reliability == pytest.approx(expected, abs=0.03)


class TestNonBinaryResults:
    def test_noncolluding_failures_boost_traditional_reliability(self):
        """Section 5.3: the binary colluding model is the worst case; with
        diverse wrong values the same k yields higher reliability."""
        colluding = run(TraditionalRedundancy(5), tasks=3000)
        diverse = run(
            TraditionalRedundancy(5),
            tasks=3000,
            failure_model=NonColludingFailures(),
        )
        assert diverse.system_reliability > colluding.system_reliability

    def test_noncolluding_helps_iterative_too(self):
        colluding = run(IterativeRedundancy(3), tasks=3000)
        diverse = run(
            IterativeRedundancy(3),
            tasks=3000,
            failure_model=NonColludingFailures(),
        )
        assert diverse.system_reliability >= colluding.system_reliability
        # Diverse wrong values also close votes faster (margin grows
        # against a scattered opposition), so cost cannot be worse.
        assert diverse.cost_factor <= colluding.cost_factor + 0.1


class TestCorrelatedFailures:
    def test_correlated_failures_hurt_reliability(self):
        """Whole-cluster faults defeat redundancy more often than
        independent faults of the same average rate."""
        clusters = {i: i % 4 for i in range(400)}
        correlated = run(
            TraditionalRedundancy(5),
            tasks=2000,
            failure_model=CorrelatedFailures(clusters, cluster_fault_prob=0.15),
            reliability=0.85,
        )
        independent = run(TraditionalRedundancy(5), tasks=2000, reliability=0.85 * 0.85)
        # Average per-job reliability is comparable (~0.72 both), but the
        # correlated system fails more tasks.
        assert correlated.system_reliability < independent.system_reliability


class TestReportShape:
    def test_summary_contains_section_41_measures(self):
        report = run(IterativeRedundancy(2), tasks=50, nodes=20)
        text = report.summary()
        for needle in (
            "time to complete",
            "total jobs",
            "avg jobs per task",
            "max jobs for any task",
            "tasks correct",
            "avg response time",
            "max response time",
        ):
            assert needle in text

    def test_confidence_interval_brackets_reliability(self):
        report = run(IterativeRedundancy(3), tasks=500)
        lo, hi = report.reliability_confidence_interval()
        assert lo <= report.system_reliability <= hi

    def test_as_dict_keys(self):
        report = run(IterativeRedundancy(2), tasks=20)
        d = report.as_dict()
        assert set(d) >= {"strategy", "reliability", "cost_factor", "mean_response_time"}
