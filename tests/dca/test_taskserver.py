# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Integration tests for the task server on small simulations."""

import gc

import pytest

from repro.core import (
    CredibilityManager,
    CredibilityStrategy,
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.dca import ByzantineCollusion, DcaConfig, DcaSimulation, run_dca
from repro.dca.node import Node
from repro.dca.taskserver import _Job
from repro.sim.events import Event


def run(strategy, **overrides):
    defaults = dict(strategy=strategy, tasks=50, nodes=20, reliability=0.7, seed=3)
    defaults.update(overrides)
    return run_dca(DcaConfig(**defaults))


class TestBasicOperation:
    def test_all_tasks_complete(self):
        report = run(TraditionalRedundancy(3))
        assert report.tasks_completed == 50

    def test_traditional_cost_is_exactly_k(self):
        report = run(TraditionalRedundancy(5))
        assert report.cost_factor == 5.0
        assert report.max_jobs_per_task == 5

    def test_progressive_never_exceeds_k_jobs(self):
        report = run(ProgressiveRedundancy(7), tasks=200)
        assert report.max_jobs_per_task <= 7
        assert report.cost_factor < 7.0

    def test_perfectly_reliable_pool_gives_perfect_reliability(self):
        report = run(IterativeRedundancy(2), reliability=1.0)
        assert report.system_reliability == 1.0
        # Unanimous first waves: exactly d jobs per task.
        assert report.cost_factor == 2.0
        assert report.mean_waves == 1.0

    def test_hostile_pool_gives_wrong_answers(self):
        report = run(IterativeRedundancy(2), reliability=0.0)
        assert report.system_reliability == 0.0

    def test_response_time_positive_and_bounded_by_makespan(self):
        report = run(IterativeRedundancy(3))
        assert 0 < report.mean_response_time <= report.max_response_time
        assert report.max_response_time <= report.makespan

    def test_duplicate_submit_rejected(self):
        simulation = DcaSimulation(DcaConfig(strategy=IterativeRedundancy(2), tasks=5, nodes=5))
        from repro.dca.workload import Task

        simulation.server.submit(Task(task_id=0))
        with pytest.raises(ValueError):
            simulation.server.submit(Task(task_id=0))

    def test_deterministic_given_seed(self):
        a = run(IterativeRedundancy(3), seed=11)
        b = run(IterativeRedundancy(3), seed=11)
        assert a.as_dict() == b.as_dict()

    def test_different_seeds_differ(self):
        a = run(IterativeRedundancy(3), seed=1, tasks=200)
        b = run(IterativeRedundancy(3), seed=2, tasks=200)
        assert a.records != b.records


class TestTimeouts:
    def test_unresponsive_jobs_time_out_and_are_replaced(self):
        report = run(
            TraditionalRedundancy(3),
            unresponsive_prob=0.2,
            tasks=100,
            timeout=5.0,
        )
        assert report.jobs_timed_out > 0
        assert report.tasks_completed == 100
        # Every verdict still rests on k actual responses.
        for record in report.records:
            assert record.jobs_used >= 3

    def test_fully_silent_pool_still_terminates_iterative(self):
        # Nodes alternate: silent with p=0.5; IR must still finish.
        report = run(
            IterativeRedundancy(2),
            unresponsive_prob=0.5,
            tasks=30,
            timeout=4.0,
        )
        assert report.tasks_completed == 30
        assert report.jobs_timed_out > 0


class TestSpotChecking:
    def test_spot_checks_issued_with_credibility_strategy(self):
        manager = CredibilityManager(assumed_fault_fraction=0.3)
        strategy = CredibilityStrategy(manager, target=0.95)
        report = run(strategy, spot_check_rate=0.2, tasks=100)
        assert report.spot_checks > 0
        assert report.tasks_completed == 100

    def test_spot_checks_are_pure_overhead(self):
        """Total dispatched jobs exceed the jobs counted against tasks."""
        manager = CredibilityManager(assumed_fault_fraction=0.3)
        strategy = CredibilityStrategy(manager, target=0.95)
        report = run(strategy, spot_check_rate=0.2, tasks=100)
        assert report.total_jobs_dispatched >= report.total_jobs + report.spot_checks

    def test_spot_checks_without_credibility_manager_are_overhead(self):
        """Plain strategies still divert spot-checks: pure overhead.

        The diverted jobs count in the dispatch totals but feed no
        reputation state and never perturb task verdicts.
        """
        report = run(IterativeRedundancy(3), spot_check_rate=0.5, tasks=20)
        assert report.spot_checks > 0
        assert report.tasks_completed == 20
        assert report.total_jobs_dispatched >= report.total_jobs + report.spot_checks

    def test_zero_rate_never_draws_the_spot_stream(self):
        baseline = run(IterativeRedundancy(3), tasks=20)
        explicit = run(IterativeRedundancy(3), spot_check_rate=0.0, tasks=20)
        assert baseline.to_json() == explicit.to_json()

    def test_bad_nodes_get_blacklisted(self):
        manager = CredibilityManager(assumed_fault_fraction=0.5)
        strategy = CredibilityStrategy(manager, target=0.9)
        run(strategy, spot_check_rate=0.3, reliability=0.3, tasks=200, seed=5)
        assert manager.blacklist_events > 0


class TestFollowupPriority:
    def test_priority_reduces_response_time(self):
        kwargs = dict(tasks=400, nodes=40, reliability=0.7, seed=9)
        fast = DcaSimulation(DcaConfig(strategy=IterativeRedundancy(4), **kwargs))
        fast.server.prioritize_followups = True
        slow = DcaSimulation(DcaConfig(strategy=IterativeRedundancy(4), **kwargs))
        slow.server.prioritize_followups = False
        fast_report = fast.run()
        slow_report = slow.run()
        assert fast_report.mean_response_time < slow_report.mean_response_time

    def test_fifo_mode_still_completes_everything(self):
        simulation = DcaSimulation(
            DcaConfig(strategy=ProgressiveRedundancy(5), tasks=100, nodes=10, seed=4)
        )
        simulation.server.prioritize_followups = False
        report = simulation.run()
        assert report.tasks_completed == 100


class TestCycleFreeLifecycle:
    """Finished jobs and their events are freed by reference counting.

    With the cyclic collector off, only jobs still in flight (at most
    one per node) and their events (at most two per job) may survive a
    run; a reference cycle per job would keep every dispatched job alive.
    """

    @staticmethod
    def _live(kind):
        return sum(1 for obj in gc.get_objects() if type(obj) is kind)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"spot_check_rate": 0.1}, {"arrival_rate": 5, "departure_rate": 5}],
        ids=["plain", "spot-checks", "churn"],
    )
    def test_finished_jobs_need_no_cyclic_gc(self, overrides):
        nodes = 200
        simulation = DcaSimulation(
            DcaConfig(
                strategy=TraditionalRedundancy(9),
                tasks=600,
                nodes=nodes,
                reliability=0.7,
                seed=3,
                **overrides,
            )
        )
        gc.collect()
        jobs_before, events_before = self._live(_Job), self._live(Event)
        gc.disable()
        try:
            report = simulation.run()
            jobs = self._live(_Job) - jobs_before
            events = self._live(Event) - events_before
        finally:
            gc.enable()
        assert report.total_jobs_dispatched > 10 * nodes
        assert jobs <= nodes
        assert events <= 2 * nodes
