# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for volunteer clients and the PlanetLab-like testbed generator."""

import random

import pytest

from repro.core import TraditionalRedundancy
from repro.sim import Simulator
from repro.volunteer.client import VolunteerClient, VolunteerNodeProfile
from repro.volunteer.planetlab import PlanetLabTestbed
from repro.volunteer.server import VolunteerServer, WorkUnit


class TestProfile:
    def test_effective_reliability(self):
        profile = VolunteerNodeProfile(
            node_id=0, seeded_fault_prob=0.3, natural_fault_prob=0.1
        )
        assert profile.effective_reliability == pytest.approx(0.7 * 0.9)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(seeded_fault_prob=1.5),
            dict(natural_fault_prob=-0.1),
            dict(unresponsive_prob=2.0),
            dict(speed_factor=0.0),
            dict(poll_interval=0.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            VolunteerNodeProfile(node_id=0, **bad)


class TestClientLoop:
    def _run(self, profiles, strategy=None, units=3, until=200.0):
        sim = Simulator(seed=5)
        server = VolunteerServer(sim, strategy or TraditionalRedundancy(3), deadline=10.0)
        for unit_id in range(units):
            server.submit(WorkUnit(unit_id=unit_id))
        clients = [
            VolunteerClient(sim, server, p, sim.rng.stream(f"c{p.node_id}"))
            for p in profiles
        ]
        sim.run(until=until)
        return sim, server, clients

    def test_honest_clients_complete_all_units(self):
        profiles = [VolunteerNodeProfile(node_id=i) for i in range(5)]
        sim, server, clients = self._run(profiles)
        assert server.remaining_units == 0
        assert all(record.correct for record in server.records)

    def test_clients_stop_when_no_work_remains(self):
        profiles = [VolunteerNodeProfile(node_id=i) for i in range(5)]
        sim, server, clients = self._run(profiles, until=1000.0)
        assert all(not client.alive for client in clients)

    def test_seeded_faults_produce_wrong_results(self):
        profiles = [
            VolunteerNodeProfile(node_id=i, seeded_fault_prob=1.0) for i in range(5)
        ]
        sim, server, clients = self._run(profiles)
        assert server.remaining_units == 0
        assert all(not record.correct for record in server.records)

    def test_unresponsive_clients_cause_deadline_misses(self):
        profiles = [
            VolunteerNodeProfile(node_id=i, unresponsive_prob=0.5) for i in range(8)
        ]
        sim, server, clients = self._run(profiles, until=2000.0)
        assert server.remaining_units == 0
        assert server.deadline_misses > 0
        assert sum(c.jobs_dropped for c in clients) > 0

    def test_real_compute_function_used(self):
        sim = Simulator(seed=6)
        server = VolunteerServer(sim, TraditionalRedundancy(3), deadline=10.0)
        server.submit(WorkUnit(unit_id=0, payload=21, true_value=42, wrong_value=0))
        calls = []

        def compute(payload):
            calls.append(payload)
            return payload * 2

        clients = [
            VolunteerClient(
                sim,
                server,
                VolunteerNodeProfile(node_id=i),
                sim.rng.stream(f"c{i}"),
                compute=compute,
            )
            for i in range(3)
        ]
        sim.run(until=100.0)
        assert calls == [21, 21, 21]
        assert server.records[0].value == 42
        assert server.records[0].correct

    def test_slow_nodes_take_longer(self):
        sim = Simulator(seed=7)
        server = VolunteerServer(sim, TraditionalRedundancy(3), deadline=50.0)
        server.submit(WorkUnit(unit_id=0))
        fast = VolunteerNodeProfile(node_id=0, speed_factor=0.5)
        slow = VolunteerNodeProfile(node_id=1, speed_factor=8.0)
        third = VolunteerNodeProfile(node_id=2)
        for profile in (fast, slow, third):
            VolunteerClient(sim, server, profile, sim.rng.stream(f"c{profile.node_id}"))
        sim.run(until=100.0)
        # The slow node dominates the single wave's response time.
        assert server.records[0].response_time > 3.0


class TestPlanetLabTestbed:
    def test_generates_requested_nodes(self):
        testbed = PlanetLabTestbed(nodes=200)
        profiles = testbed.generate(random.Random(0))
        assert len(profiles) == 200
        assert len({p.node_id for p in profiles}) == 200

    def test_seeded_fault_prob_uniform(self):
        profiles = PlanetLabTestbed(nodes=50).generate(random.Random(1))
        assert all(p.seeded_fault_prob == 0.3 for p in profiles)

    def test_natural_faults_vary_and_stay_in_range(self):
        testbed = PlanetLabTestbed(nodes=100, natural_fault_max=0.1)
        profiles = testbed.generate(random.Random(2))
        rates = [p.natural_fault_prob for p in profiles]
        assert all(0.0 <= rate <= 0.1 for rate in rates)
        assert max(rates) > min(rates)

    def test_speed_heterogeneity(self):
        profiles = PlanetLabTestbed(nodes=100, speed_sigma=0.35).generate(random.Random(3))
        speeds = [p.speed_factor for p in profiles]
        assert max(speeds) / min(speeds) > 1.5

    def test_expected_reliability_in_papers_band(self):
        """Default parameters land the pool's mean reliability inside the
        paper's derived 0.64 < r < 0.67 (seeded 0.3 + natural faults)."""
        testbed = PlanetLabTestbed()
        assert 0.64 < testbed.expected_reliability() < 0.67
        profiles = testbed.generate(random.Random(4))
        empirical = sum(p.effective_reliability for p in profiles) / len(profiles)
        assert 0.62 < empirical < 0.69

    def test_platform_classes(self):
        profiles = PlanetLabTestbed(nodes=100, platforms=4).generate(random.Random(5))
        assert {p.platform for p in profiles} == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanetLabTestbed(nodes=0)
        with pytest.raises(ValueError):
            PlanetLabTestbed(seeded_fault_prob=1.0)
        with pytest.raises(ValueError):
            PlanetLabTestbed(speed_sigma=-1.0)
        with pytest.raises(ValueError):
            PlanetLabTestbed(platforms=0)
