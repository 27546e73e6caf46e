# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""End-to-end tests of the volunteer deployment harness."""

import math

import pytest

from repro.core import (
    IterativeRedundancy,
    NoRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.sat.formula import random_3sat
from repro.sat.solver import dpll_satisfiable
from repro.volunteer import PlanetLabTestbed, VolunteerConfig, run_volunteer
from repro.volunteer.deployment import derive_reliability


def run(strategy, **overrides):
    defaults = dict(
        strategy=strategy,
        testbed=PlanetLabTestbed(nodes=60),
        sat_vars=12,
        tasks=40,
        seed=9,
    )
    defaults.update(overrides)
    return run_volunteer(VolunteerConfig(**defaults))


class TestDeployment:
    def test_all_units_reach_verdicts(self):
        report = run(TraditionalRedundancy(5))
        assert report.tasks_completed == 40

    def test_iterative_more_reliable_than_traditional_at_similar_cost(self):
        tr = run(TraditionalRedundancy(9), use_sat=False, tasks=400)
        ir = run(IterativeRedundancy(4), use_sat=False, tasks=400)
        assert ir.tasks_completed == 400
        assert ir.system_reliability > tr.system_reliability
        assert ir.cost_factor < tr.cost_factor * 1.4

    def test_problem_answer_scored_against_truth(self):
        report = run(IterativeRedundancy(6))
        assert report.problem_truth is not None
        assert report.problem_correct is not None

    def test_problem_truth_matches_dpll(self):
        """The ground truth the deployment computes must agree with the
        independent DPLL oracle on the same generated formula."""
        import random as random_module

        from repro.sim.rng import RngRegistry

        config = VolunteerConfig(
            strategy=IterativeRedundancy(4), sat_vars=10, tasks=16, seed=33
        )
        report = run_volunteer(config)
        formula = random_3sat(
            10,
            config.effective_sat_clauses,
            RngRegistry(33).stream("workload"),
        )
        assert report.problem_truth == dpll_satisfiable(formula)

    def test_synthetic_mode_skips_sat(self):
        report = run(TraditionalRedundancy(3), use_sat=False)
        assert report.problem_answer is None
        assert report.problem_truth is None
        assert report.tasks_completed == 40

    def test_really_compute_matches_stored_truth(self):
        """Honest clients that actually enumerate their slice produce the
        same verdicts as ground-truth reporting (modulo injected faults --
        so use a fault-free testbed)."""
        clean = PlanetLabTestbed(
            nodes=20, seeded_fault_prob=0.0, natural_fault_max=0.0, unresponsive_max=0.0
        )
        report = run(
            TraditionalRedundancy(3),
            testbed=clean,
            really_compute=True,
            sat_vars=8,
            tasks=10,
        )
        assert report.system_reliability == 1.0
        assert report.problem_correct

    def test_deterministic_for_seed(self):
        a = run(IterativeRedundancy(3))
        b = run(IterativeRedundancy(3))
        assert a.as_dict() == b.as_dict()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VolunteerConfig(strategy=NoRedundancy(), tasks=0)
        with pytest.raises(ValueError):
            VolunteerConfig(strategy=NoRedundancy(), sat_vars=2)
        with pytest.raises(ValueError):
            VolunteerConfig(strategy=NoRedundancy(), deadline=0.0)

    def test_clause_count_defaults_to_phase_transition(self):
        config = VolunteerConfig(strategy=NoRedundancy(), sat_vars=22)
        assert config.effective_sat_clauses == round(4.27 * 22)
        config = VolunteerConfig(strategy=NoRedundancy(), sat_vars=22, sat_clauses=50)
        assert config.effective_sat_clauses == 50


class TestDerivedReliability:
    """The Section 4.2 analysis: derive the unknown r from measurements and
    find it consistent across techniques."""

    def test_derived_r_lands_in_papers_band(self):
        report = run(IterativeRedundancy(4), tasks=80)
        assert 0.60 < report.derived_reliability < 0.70

    def test_derived_r_consistent_across_techniques(self):
        estimates = []
        for strategy in (
            TraditionalRedundancy(9),
            ProgressiveRedundancy(9),
            IterativeRedundancy(4),
        ):
            report = run(strategy, tasks=80)
            if not math.isnan(report.derived_reliability):
                estimates.append(report.derived_reliability)
        assert len(estimates) == 3
        assert max(estimates) - min(estimates) < 0.08

    def test_derived_r_below_seeded_ceiling(self):
        """Natural faults push r below the seeded 0.7, as on PlanetLab."""
        report = run(IterativeRedundancy(4), tasks=80)
        assert report.derived_reliability < 0.70

    def test_unknown_strategy_returns_nan(self):
        report = run(IterativeRedundancy(3), tasks=10)
        assert math.isnan(derive_reliability(report, NoRedundancy()))
