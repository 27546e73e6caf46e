"""Tests for grid sites: slots, queues, correlated faults, maintenance."""

import pytest

from repro.grid.site import GridSite, MaintenanceWindow, _QueuedJob
from repro.sim import Simulator


def make_job(job_id, task_id, results):
    return _QueuedJob(
        job_id=job_id,
        task_id=task_id,
        true_value=True,
        wrong_value=False,
        on_result=lambda jid, value: results.append((jid, value)),
    )


class TestMaintenanceWindow:
    def test_end(self):
        window = MaintenanceWindow(start=5.0, duration=2.0)
        assert window.end == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MaintenanceWindow(start=-1.0, duration=1.0)
        with pytest.raises(ValueError):
            MaintenanceWindow(start=0.0, duration=0.0)


class TestSlotsAndQueue:
    def test_parallelism_bounded_by_slots(self):
        sim = Simulator(seed=1)
        site = GridSite(sim, 0, slots=2, job_fault_prob=0.0, site_fault_prob=0.0)
        results = []
        for i in range(5):
            site.submit(make_job(i, task_id=i, results=results))
        assert site.queue_length == 3
        assert site.load == 5
        sim.run()
        assert len(results) == 5

    def test_fifo_order_of_queue(self):
        sim = Simulator(seed=2)
        site = GridSite(
            sim, 0, slots=1, job_fault_prob=0.0, site_fault_prob=0.0,
            duration_low=1.0, duration_high=1.0,
        )
        results = []
        for i in range(3):
            site.submit(make_job(i, task_id=i, results=results))
        sim.run()
        assert [jid for jid, _ in results] == [0, 1, 2]

    def test_makespan_reflects_queueing(self):
        sim = Simulator(seed=3)
        site = GridSite(
            sim, 0, slots=1, job_fault_prob=0.0,
            duration_low=1.0, duration_high=1.0,
        )
        results = []
        for i in range(4):
            site.submit(make_job(i, task_id=0, results=results))
        sim.run()
        assert sim.now == pytest.approx(4.0)

    def test_validation(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            GridSite(sim, 0, slots=0)
        with pytest.raises(ValueError):
            GridSite(sim, 0, site_fault_prob=1.0)
        with pytest.raises(ValueError):
            GridSite(sim, 0, duration_low=0.0)


class TestCorrelatedFaults:
    def test_poisoned_site_fails_whole_task(self):
        sim = Simulator(seed=4)
        site = GridSite(sim, 0, slots=10, site_fault_prob=0.5, job_fault_prob=0.0)
        # Find a poisoned task, then verify all its jobs fail together.
        for task_id in range(50):
            if site._task_poisoned(task_id):
                results = []
                for i in range(5):
                    site.submit(make_job(i, task_id=task_id, results=results))
                sim.run()
                assert all(value is False for _, value in results)
                return
        pytest.fail("no poisoned task in 50 draws at p=0.5")

    def test_clean_site_honest_jobs(self):
        sim = Simulator(seed=5)
        site = GridSite(sim, 0, slots=10, site_fault_prob=0.0, job_fault_prob=0.0)
        results = []
        for i in range(5):
            site.submit(make_job(i, task_id=1, results=results))
        sim.run()
        assert all(value is True for _, value in results)

    def test_poisoning_memoised_per_task(self):
        sim = Simulator(seed=6)
        site = GridSite(sim, 0, site_fault_prob=0.5)
        first = site._task_poisoned(7)
        assert site._task_poisoned(7) == first

    def test_effective_reliability(self):
        sim = Simulator(seed=7)
        site = GridSite(sim, 0, site_fault_prob=0.2, job_fault_prob=0.1)
        assert site.effective_job_reliability() == pytest.approx(0.8 * 0.9)


class TestMaintenance:
    def test_no_starts_during_window(self):
        sim = Simulator(seed=8)
        site = GridSite(
            sim, 0, slots=1, job_fault_prob=0.0,
            duration_low=1.0, duration_high=1.0,
            maintenance=(MaintenanceWindow(start=0.5, duration=10.0),),
        )
        results = []
        done_times = []

        def on_result(jid, value):
            results.append(value)
            done_times.append(sim.now)

        sim.schedule(1.0, lambda ev: site.submit(
            _QueuedJob(0, 0, True, False, on_result)
        ))
        sim.run()
        # The job could only start after the window ends at 10.5.
        assert done_times[0] >= 11.0

    def test_running_jobs_drain_through_window(self):
        sim = Simulator(seed=9)
        site = GridSite(
            sim, 0, slots=1, job_fault_prob=0.0,
            duration_low=2.0, duration_high=2.0,
            maintenance=(MaintenanceWindow(start=1.0, duration=5.0),),
        )
        results = []
        site.submit(make_job(0, 0, results))
        sim.run()
        assert len(results) == 1  # started at 0, finishes at 2 despite window
