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
from repro.dca.pool import NodePool
from repro.dca.taskserver import TaskServer, _Job
from repro.dca.workload import Workload
from repro.obs import TelemetryRecorder
from repro.sim.engine import Simulator
from repro.sim.events import CalendarQueue, Event, EventQueue


def _queue_entries(queue):
    """The physical entry lists of either queue kind."""
    return queue._buckets if isinstance(queue, CalendarQueue) else [queue._heap]


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


class _WatchingTR(TraditionalRedundancy):
    """TR that implements the node-aware protocol and keeps what it is fed."""

    def __init__(self, k):
        super().__init__(k)
        self.outcomes = []
        self.verdicts = []

    def record_outcome(self, task_id, outcome):
        self.outcomes.append((task_id, outcome))

    def task_finished(self, task_id, verdict):
        self.verdicts.append((task_id, verdict))


class TestNodeAwareOutcomes:
    def test_node_aware_strategy_receives_node_id_and_elapsed(self):
        strategy = _WatchingTR(3)
        report = run(strategy, unresponsive_prob=0.2, speed_spread=0.5, timeout=5.0)
        assert report.tasks_completed == 50
        assert len(strategy.verdicts) == 50
        assert len(strategy.outcomes) == report.total_jobs
        responded = [outcome for _, outcome in strategy.outcomes if outcome.value is not None]
        silent = [outcome for _, outcome in strategy.outcomes if outcome.value is None]
        assert len(silent) == report.jobs_timed_out > 0
        assert responded
        for outcome in responded:
            assert 0 <= outcome.node_id < 20
            # Nominal durations lie in [0.5, 1.5]; speeds in [0.5, 1.5].
            assert 0.25 <= outcome.elapsed <= 2.25
        for outcome in silent:
            assert 0 <= outcome.node_id < 20
            assert outcome.elapsed is None

    def test_node_awareness_does_not_change_the_report(self):
        config = dict(unresponsive_prob=0.2, speed_spread=0.5, timeout=5.0)
        assert (
            run(_WatchingTR(3), **config).to_json()
            == run(TraditionalRedundancy(3), **config).to_json()
        )


class TestRunTotalCounters:
    @staticmethod
    def _counters(recorder):
        snapshot = recorder.registry.snapshot()
        return {
            name: entry["series"][0]["value"]
            for name, entry in snapshot.items()
            if entry["kind"] == "counter" and name.startswith("dca.")
        }

    def test_totals_match_the_report(self):
        recorder = TelemetryRecorder()
        report = run_dca(
            DcaConfig(
                strategy=IterativeRedundancy(2),
                tasks=60,
                nodes=20,
                seed=4,
                unresponsive_prob=0.1,
                spot_check_rate=0.1,
            ),
            recorder=recorder,
        )
        counters = self._counters(recorder)
        assert counters["dca.dispatch"] == report.total_jobs_dispatched
        assert counters["dca.timeout"] == report.jobs_timed_out > 0
        assert counters["dca.spot_check"] == report.spot_checks > 0
        assert counters["dca.complete"] + counters["dca.timeout"] == counters["dca.dispatch"]
        assert counters["dca.submit"] == counters["dca.accept"] == 60

    def test_zero_totals_record_nothing(self):
        recorder = TelemetryRecorder()
        run_dca(
            DcaConfig(strategy=TraditionalRedundancy(3), tasks=30, nodes=10, seed=4),
            recorder=recorder,
        )
        counters = self._counters(recorder)
        assert counters["dca.dispatch"] == counters["dca.complete"] == 90
        assert "dca.timeout" not in counters
        assert "dca.spot_check" not in counters

    def test_task_totals_match_the_records(self):
        recorder = TelemetryRecorder()
        report = run_dca(
            DcaConfig(strategy=IterativeRedundancy(2), tasks=60, nodes=20, seed=4),
            recorder=recorder,
        )
        snapshot = recorder.registry.snapshot()
        decisions = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in snapshot["dca.decisions"]["series"]
        }
        waves = {
            entry["labels"]["followup"]: entry for entry in snapshot["dca.wave_size"]["series"]
        }
        assert decisions["accept"] == snapshot["dca.accept"]["series"][0]["value"] == 60
        assert decisions["extend"] == waves["True"]["count"] > 0
        assert waves["False"]["count"] == 60
        response = snapshot["dca.response_time"]["series"][0]
        jobs = snapshot["dca.jobs_per_task"]["series"][0]
        total = 0.0
        for record in report.records:
            total += record.response_time
        assert response["count"] == jobs["count"] == 60
        assert response["sum"].hex() == total.hex()
        assert jobs["sum"] == sum(record.jobs_used for record in report.records)

    def test_a_run_that_raises_records_no_task_totals_but_every_submit(self):
        class FailingLater(TraditionalRedundancy):
            calls = 0

            def decide(self, vote):
                FailingLater.calls += 1
                if FailingLater.calls == 6:
                    raise RuntimeError("strategy bug")
                return super().decide(vote)

        recorder = TelemetryRecorder()
        simulation = DcaSimulation(
            DcaConfig(strategy=FailingLater(3), tasks=10, nodes=10, seed=4),
            recorder=recorder,
        )
        with pytest.raises(RuntimeError, match="strategy bug"):
            simulation.run()
        assert len(simulation.server.records) == 5
        snapshot = recorder.registry.snapshot()
        assert snapshot["dca.submit"]["series"][0]["value"] == 10
        for name in (
            "dca.accept",
            "dca.decisions",
            "dca.wave_size",
            "dca.response_time",
            "dca.jobs_per_task",
        ):
            assert name not in snapshot

    def test_a_run_that_raises_records_no_job_counters(self):
        class Failing(TraditionalRedundancy):
            def decide(self, vote):
                raise RuntimeError("strategy bug")

        recorder = TelemetryRecorder()
        simulation = DcaSimulation(
            DcaConfig(strategy=Failing(3), tasks=10, nodes=10, seed=4),
            recorder=recorder,
        )
        with pytest.raises(RuntimeError, match="strategy bug"):
            simulation.run()
        assert simulation.server.total_jobs_dispatched > 0
        assert "dca.dispatch" not in recorder.registry.snapshot()
        assert "dca.submit" in recorder.registry.snapshot()

    @pytest.mark.parametrize("max_spans", [None, 0, 3], ids=["uncapped", "cap-0", "cap-3"])
    def test_a_run_that_raises_declares_its_open_spans(self, max_spans):
        class FailingLater(TraditionalRedundancy):
            calls = 0

            def decide(self, vote):
                FailingLater.calls += 1
                if FailingLater.calls == 6:
                    raise RuntimeError("strategy bug")
                return super().decide(vote)

        recorder = TelemetryRecorder(max_spans=max_spans)
        simulation = DcaSimulation(
            DcaConfig(strategy=FailingLater(3), tasks=10, nodes=10, seed=4),
            recorder=recorder,
        )
        with pytest.raises(RuntimeError, match="strategy bug"):
            simulation.run()
        server = simulation.server
        in_flight = server.total_jobs_dispatched - server.jobs_completed - server.jobs_timed_out
        # 14 when each span was begun and ended on its own: 9 jobs in
        # flight and 5 tasks without a verdict.
        assert recorder.open_spans == in_flight + server.remaining_tasks == 14
        assert len(recorder.spans) + recorder.dropped_spans == 24

    def test_a_bare_server_declares_open_spans_in_record_totals(self):
        # Run without DcaSimulation and cut at a horizon: record_totals,
        # which code running a bare server calls itself, declares what
        # is still open.
        recorder = TelemetryRecorder()
        sim = Simulator(seed=1, recorder=recorder)
        pool = NodePool()
        for _ in range(5):
            pool.join(Node(node_id=pool.allocate_id(), reliability=0.7))
        server = TaskServer(sim, pool, IterativeRedundancy(2), timeout=3.0)
        for task in Workload(12).tasks():
            server.submit(task)
        sim.run(until=4.0)
        assert recorder.open_spans == 0
        server.record_totals()
        # Pinned when each span was begun and ended on its own.
        assert recorder.open_spans == 12
        assert len(recorder.spans) == 22


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
    """Finished jobs are freed by reference counting.

    A job is its own event, so with the cyclic collector off only jobs
    still in flight (at most one per node) and churn's two timers may
    survive a run; a reference cycle per job would keep every dispatched
    job alive, and a separate event per job would show up beside it.
    """

    @staticmethod
    def _live(kind):
        # Subclasses too: jobs are Events.
        return sum(1 for obj in gc.get_objects() if isinstance(obj, kind))

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
        # Every other live event is one of churn's two pending timers.
        assert events - jobs <= (2 if overrides.get("arrival_rate") else 0)

    @pytest.mark.parametrize("queue", ["heap", "calendar"])
    def test_one_queued_job_per_busy_node_and_no_other_event(self, queue):
        nodes = 50
        simulation = DcaSimulation(
            DcaConfig(
                strategy=TraditionalRedundancy(9),
                tasks=200,
                nodes=nodes,
                reliability=0.7,
                seed=3,
                unresponsive_prob=0.1,
                queue=queue,
            )
        )
        for task in Workload(200).tasks():
            simulation.server.submit(task)
        gc.collect()
        plain_events_before = sum(1 for obj in gc.get_objects() if type(obj) is Event)
        simulation.sim.run(until=20.0)
        busy = [node for node in simulation.pool if node.busy]
        queued = [
            entry[3]
            for entries in _queue_entries(simulation.sim.queue)
            for entry in entries
            if not entry[3].cancelled
        ]
        assert simulation.server.jobs_timed_out > 0
        assert len(busy) == nodes == simulation.sim.pending == len(queued)
        assert all(type(event) is _Job for event in queued)
        assert sorted(job.node.node_id for job in queued) == sorted(n.node_id for n in busy)
        assert sum(1 for obj in gc.get_objects() if type(obj) is Event) == plain_events_before


class TestDeferredDeadlines:
    """Counts, not timings: what deferring deadlines saves the queue.

    A deadline is queued only when it can fire first, so a run where
    every job completes in time pushes one event per job and never
    cancels one.
    """

    @pytest.mark.parametrize("queue", ["heap", "calendar"])
    def test_plain_run_cancels_nothing_and_never_compacts(self, queue, monkeypatch):
        cancels = []
        for kind in (EventQueue, CalendarQueue):
            original = kind.cancel
            monkeypatch.setattr(
                kind,
                "cancel",
                lambda self, event, original=original: cancels.append(event)
                or original(self, event),
            )
        simulation = DcaSimulation(
            DcaConfig(
                strategy=TraditionalRedundancy(9),
                tasks=600,
                nodes=200,
                reliability=0.7,
                seed=3,
                queue=queue,
            )
        )
        report = simulation.run()
        assert report.jobs_timed_out == 0
        assert cancels == []
        assert simulation.sim._queue.compactions == 0
        # One event per job: every dispatch fired as a completion.
        assert simulation.sim.events_processed == report.total_jobs_dispatched

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"spot_check_rate": 0.1},
            {"unresponsive_prob": 0.1},
            {"arrival_rate": 5, "departure_rate": 5},
            {"max_time": 3.0},
        ],
        ids=["plain", "spot-checks", "unresponsive", "churn", "horizon"],
    )
    def test_finished_simulation_is_freed_by_reference_counting(self, overrides):
        """A finished simulation leaves no cyclic garbage behind, also
        when churn's timers or jobs in flight at a horizon were still
        queued when the loop stopped."""
        simulation = DcaSimulation(
            DcaConfig(
                strategy=TraditionalRedundancy(9),
                tasks=600,
                nodes=200,
                reliability=0.7,
                seed=3,
                **overrides,
            )
        )
        gc.collect()
        gc.disable()
        try:
            report = simulation.run()
            del simulation
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
        if "max_time" in overrides:
            assert report.tasks_completed < report.tasks_submitted
        if "arrival_rate" in overrides:
            assert report.nodes_joined > 0 and report.nodes_departed > 0
