"""Wiring and entry point for DCA simulation runs."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dca.churn import ChurnProcess
from repro.dca.config import DcaConfig
from repro.dca.pool import NodePool
from repro.dca.report import DcaReport
from repro.dca.taskserver import TaskServer
from repro.dca.workload import Task, Workload
from repro.obs.names import DCA_MAKESPAN
from repro.obs.recorder import Recorder
from repro.sim.engine import Simulator, StopSimulation


class DcaSimulation:
    """One configured simulation, ready to run.

    Separating construction from :meth:`run` lets tests inspect or
    perturb the wired components (pool, server, churn) before running.

    Args:
        config: The run configuration.
        recorder: Optional telemetry recorder; it is handed to the
            :class:`~repro.sim.engine.Simulator`, and the task server
            inherits it from there.  Telemetry observes without
            perturbing: same-seed runs are identical with it on or off.
    """

    def __init__(self, config: DcaConfig, recorder: Optional[Recorder] = None) -> None:
        self.config = config
        self.sim = Simulator(seed=config.seed, recorder=recorder, queue=config.queue)
        self.pool = NodePool()
        # The hooks hold the server, never this object, and the server
        # holds nothing of churn (run() stops churn once every task has a
        # verdict, and drops the events still queued): a finished
        # simulation forms no reference cycle, so reference counting
        # frees it.
        self.server = server = TaskServer(
            self.sim,
            self.pool,
            config.strategy,
            failure_model=config.failure_model,
            duration_low=config.duration_low,
            duration_high=config.duration_high,
            timeout=config.effective_timeout,
            spot_check_rate=config.spot_check_rate,
            on_all_done=_stop_simulation,
        )
        self.churn = ChurnProcess(
            self.sim,
            self.pool,
            config.reliability_distribution,
            arrival_rate=config.arrival_rate,
            departure_rate=config.departure_rate,
            speed_spread=config.speed_spread,
            unresponsive_prob=config.unresponsive_prob,
            on_join=lambda node: server.pump(),
        )
        self._build_initial_pool()

    def _build_initial_pool(self) -> None:
        for _ in range(self.config.nodes):
            self.pool.join(self.churn.make_node())
        # Initial membership is part of setup, not churn statistics.
        self.pool.joins = 0

    def run(self, tasks: Optional[Iterable[Task]] = None) -> DcaReport:
        """Execute the computation and aggregate the report.

        Args:
            tasks: The tasks to submit, ``config.tasks`` of them; default
                the synthetic binary :class:`~repro.dca.workload.Workload`.

        Once the report is built, the events still queued (churn's two
        timers, jobs in flight at a ``max_time`` horizon) are dropped:
        each holds the simulator through its callback's owner, so
        keeping them would leave a finished churn or horizon run in a
        cycle that only the cyclic collector frees.
        """
        config = self.config
        try:
            if tasks is None:
                tasks = Workload(config.tasks).tasks()
            for task in tasks:
                self.server.submit(task)
            self.churn.start()
            self.sim.run(until=config.max_time)
        except BaseException:
            # A raising run skips record_totals, which declares otherwise.
            self.server.declare_open_spans()
            raise
        self.server.record_totals()
        if self.server.remaining_tasks == 0:
            self.churn.stop()
        if self.sim.recorder is not None:
            self.sim.recorder.gauge(DCA_MAKESPAN, self.sim.now)
        report = DcaReport(
            strategy=config.strategy.describe(),
            tasks_submitted=config.tasks,
            records=self.server.records,
            makespan=self.sim.now,
            total_jobs_dispatched=self.server.total_jobs_dispatched,
            jobs_timed_out=self.server.jobs_timed_out,
            spot_checks=self.server.spot_checks_issued,
            nodes_joined=self.pool.joins,
            nodes_departed=self.pool.departures,
            seed=config.seed,
        )
        self.sim.queue.clear()
        return report


def _stop_simulation() -> None:
    raise StopSimulation


def run_dca(config: DcaConfig, recorder: Optional[Recorder] = None) -> DcaReport:
    """Build and run one DCA simulation (the usual entry point)."""
    return DcaSimulation(config, recorder=recorder).run()
