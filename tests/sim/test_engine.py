"""Unit tests for the simulator core."""

import pytest

from repro.core import IterativeRedundancy
from repro.dca import DcaConfig, DcaSimulation
from repro.sim import SimulationError, Simulator, StopSimulation
from repro.sim.events import QUEUE_KINDS


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator(seed=1).now == 0.0

    def test_run_advances_clock_to_events(self):
        sim = Simulator(seed=1)
        seen = []
        sim.schedule(2.5, lambda ev: seen.append(sim.now))
        sim.schedule(1.0, lambda ev: seen.append(sim.now))
        sim.run()
        assert seen == [1.0, 2.5]
        assert sim.now == 2.5

    def test_schedule_after_is_relative(self):
        sim = Simulator(seed=1)
        seen = []

        def chain(ev):
            seen.append(sim.now)
            if len(seen) < 3:
                sim.schedule_after(1.0, chain)

        sim.schedule_after(1.0, chain)
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(seed=1)
        sim.schedule(5.0, lambda ev: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda ev: None)

    def test_negative_delay_rejected(self):
        sim = Simulator(seed=1)
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, lambda ev: None)

    def test_payload_reaches_callback(self):
        sim = Simulator(seed=1)
        got = []
        sim.schedule(1.0, lambda ev: got.append(ev.payload), payload={"x": 1})
        sim.run()
        assert got == [{"x": 1}]

    def test_cancel_prevents_firing(self):
        sim = Simulator(seed=1)
        fired = []
        event = sim.schedule(1.0, lambda ev: fired.append("no"))
        sim.schedule(2.0, lambda ev: fired.append("yes"))
        sim.cancel(event)
        sim.run()
        assert fired == ["yes"]


class TestRunControls:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(1.0, lambda ev: fired.append(1))
        sim.schedule(10.0, lambda ev: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_advances_clock_when_queue_drains(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda ev: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events_limits_work(self):
        sim = Simulator(seed=1)
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda ev, i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_simulation_halts_loop(self):
        sim = Simulator(seed=1)
        fired = []

        def stopper(ev):
            fired.append("stop")
            raise StopSimulation

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, lambda ev: fired.append("never"))
        sim.run()
        assert fired == ["stop"]

    def test_step_returns_false_on_empty(self):
        sim = Simulator(seed=1)
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator(seed=1)
        for i in range(4):
            sim.schedule(float(i), lambda ev: None)
        sim.run()
        assert sim.events_processed == 4

    def test_not_reentrant(self):
        sim = Simulator(seed=1)

        def reenter(ev):
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()

    def test_reset_clears_state(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda ev: None)
        sim.run()
        sim.reset(seed=2)
        assert sim.now == 0.0
        assert sim.pending == 0
        assert sim.events_processed == 0


def _queued_entries(queue):
    """Every physical entry of a heap or calendar queue."""
    if hasattr(queue, "_heap"):
        return list(queue._heap)
    return [entry for bucket in queue._buckets for entry in bucket]


@pytest.mark.parametrize("queue", QUEUE_KINDS)
class TestCancelFiredEvent:
    """Cancelling an event that already fired is a no-op."""

    def test_pending_unchanged(self, queue):
        sim = Simulator(seed=1, queue=queue)
        fired = sim.schedule(1.0, lambda ev: None)
        sim.schedule(5.0, lambda ev: None)
        sim.run(until=2.0)
        assert sim.pending == 1
        sim.cancel(fired)
        assert sim.pending == 1

    def test_cancel_inside_own_callback(self, queue):
        sim = Simulator(seed=1, queue=queue)
        sim.schedule(1.0, sim.cancel)
        sim.schedule(5.0, lambda ev: None)
        sim.run(until=2.0)
        assert sim.pending == 1

    def test_run_until_still_reaches_horizon(self, queue):
        sim = Simulator(seed=1, queue=queue)
        fired = []
        first = sim.schedule(1.0, lambda ev: None)
        sim.schedule(5.0, lambda ev: fired.append(sim.now))
        sim.run(until=2.0)
        sim.cancel(first)
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert fired == []
        sim.run()
        assert fired == [5.0]
        assert sim.pending == 0

    def test_dca_churn_live_count_matches_queue(self, queue):
        # Departed nodes make the deadline path cancel completions that
        # have already fired.
        simulation = DcaSimulation(
            DcaConfig(
                strategy=IterativeRedundancy(2),
                tasks=2000,
                nodes=100,
                reliability=0.7,
                arrival_rate=5,
                departure_rate=5,
                seed=3,
                queue=queue,
            )
        )
        simulation.run()
        events = simulation.sim._queue
        live = sum(1 for entry in _queued_entries(events) if not entry[3].cancelled)
        assert len(events) == live


class TestDeterminism:
    def test_same_seed_same_rng_draws(self):
        draws = []
        for _ in range(2):
            sim = Simulator(seed=99)
            draws.append([sim.rng.stream("s").random() for _ in range(5)])
        assert draws[0] == draws[1]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator(seed=1)
        fired = []
        for i in range(20):
            sim.schedule(1.0, lambda ev, i=i: fired.append(i))
        sim.run()
        assert fired == list(range(20))
