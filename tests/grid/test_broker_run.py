# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for the resource broker and end-to-end grid runs."""

import random

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy, analysis
from repro.grid import GridConfig, GridSite, MaintenanceWindow, ResourceBroker, run_grid
from repro.grid.site import _QueuedJob
from repro.sim import Simulator


def make_sites(sim, n, **kwargs):
    defaults = dict(site_fault_prob=0.0, job_fault_prob=0.0)
    defaults.update(kwargs)
    return [GridSite(sim, i, **defaults) for i in range(n)]


def job(job_id, task_id=0):
    return _QueuedJob(job_id, task_id, True, False, lambda jid, value: None)


class TestBrokerPolicies:
    def test_unknown_policy_rejected(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            ResourceBroker(make_sites(sim, 2), random.Random(0), policy="psychic")

    def test_needs_sites(self):
        with pytest.raises(ValueError):
            ResourceBroker([], random.Random(0))

    def test_round_robin_cycles(self):
        sim = Simulator(seed=1)
        sites = make_sites(sim, 3)
        broker = ResourceBroker(sites, random.Random(0), policy="round_robin")
        chosen = [broker.route(job(i, task_id=i)).site_id for i in range(6)]
        assert chosen == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_idle_site(self):
        sim = Simulator(seed=2)
        sites = make_sites(sim, 2, slots=1)
        broker = ResourceBroker(sites, random.Random(0), policy="least_loaded")
        first = broker.route(job(0, task_id=0))
        second = broker.route(job(1, task_id=1))
        assert first.site_id != second.site_id

    def test_random_policy_spreads(self):
        sim = Simulator(seed=3)
        sites = make_sites(sim, 4, slots=100)
        broker = ResourceBroker(sites, random.Random(0), policy="random")
        chosen = {broker.route(job(i, task_id=i)).site_id for i in range(60)}
        assert len(chosen) == 4

    def test_offline_sites_skipped(self):
        sim = Simulator(seed=4)
        sites = make_sites(sim, 2)
        sites[0]._offline = True
        broker = ResourceBroker(sites, random.Random(0))
        assert broker.route(job(0)).site_id == 1


class TestAntiAffinity:
    def test_same_task_never_shares_a_site(self):
        sim = Simulator(seed=5)
        sites = make_sites(sim, 5)
        broker = ResourceBroker(sites, random.Random(0), anti_affinity=True)
        chosen = [broker.route(job(i, task_id=42)).site_id for i in range(5)]
        assert len(set(chosen)) == 5
        assert broker.affinity_violations == 0

    def test_exhausted_sites_fall_back_with_violation_count(self):
        sim = Simulator(seed=6)
        sites = make_sites(sim, 2)
        broker = ResourceBroker(sites, random.Random(0), anti_affinity=True)
        for i in range(3):
            broker.route(job(i, task_id=7))
        assert broker.affinity_violations == 1

    def test_forget_task_clears_bookkeeping(self):
        sim = Simulator(seed=7)
        sites = make_sites(sim, 2)
        broker = ResourceBroker(sites, random.Random(0), anti_affinity=True)
        broker.route(job(0, task_id=1))
        broker.forget_task(1)
        assert 1 not in broker._task_sites


class TestGridRuns:
    def test_all_tasks_complete(self):
        report = run_grid(GridConfig(strategy=TraditionalRedundancy(3), tasks=200, seed=1))
        assert report.tasks_completed == 200

    def test_no_faults_perfect(self):
        report = run_grid(
            GridConfig(
                strategy=IterativeRedundancy(2),
                tasks=200,
                site_fault_prob=0.0,
                job_fault_prob=0.0,
                seed=2,
            )
        )
        assert report.system_reliability == 1.0
        assert report.cost_factor == 2.0

    def test_independent_faults_match_closed_forms(self):
        """Without site-level correlation the grid behaves like the DCA
        model at the same marginal reliability."""
        config = GridConfig(
            strategy=IterativeRedundancy(3),
            tasks=3_000,
            site_fault_prob=0.0,
            job_fault_prob=0.3,
            seed=3,
        )
        report = run_grid(config)
        r = config.expected_job_reliability()
        assert report.system_reliability == pytest.approx(
            analysis.iterative_reliability(r, 3), abs=0.025
        )
        assert report.cost_factor == pytest.approx(analysis.iterative_cost(r, 3), rel=0.05)

    def test_anti_affinity_beats_colocation_under_site_faults(self):
        """The §5.3 correlation effect, quantified: same marginal
        reliability, but spreading replicas across sites restores the
        independence the vote needs.  Random routing over few sites
        co-locates replicas regularly (pigeonhole); anti-affinity
        forbids it."""
        base = dict(
            strategy=TraditionalRedundancy(3),
            tasks=3_000,
            sites=4,
            site_fault_prob=0.2,
            job_fault_prob=0.05,
            seed=4,
        )
        colocated = run_grid(GridConfig(policy="random", anti_affinity=False, **base))
        spread = run_grid(GridConfig(policy="random", anti_affinity=True, **base))
        assert spread.system_reliability > colocated.system_reliability + 0.01

    def test_anti_affinity_approaches_independent_analysis(self):
        config = GridConfig(
            strategy=TraditionalRedundancy(5),
            tasks=3_000,
            sites=12,
            site_fault_prob=0.15,
            job_fault_prob=0.05,
            anti_affinity=True,
            seed=5,
        )
        report = run_grid(config)
        assert report.tasks_completed == 3_000
        r = config.expected_job_reliability()
        assert report.system_reliability == pytest.approx(
            analysis.traditional_reliability(r, 5), abs=0.03
        )

    def test_maintenance_window_delays_but_completes(self):
        maintenance = {0: (MaintenanceWindow(start=0.0, duration=20.0),)}
        report = run_grid(
            GridConfig(
                strategy=TraditionalRedundancy(3),
                tasks=100,
                sites=2,
                maintenance=maintenance,
                seed=6,
            )
        )
        assert report.tasks_completed == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            GridConfig(strategy=TraditionalRedundancy(3), tasks=0)
        with pytest.raises(ValueError):
            GridConfig(strategy=TraditionalRedundancy(3), sites=0)
