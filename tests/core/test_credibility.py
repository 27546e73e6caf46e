# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for the credibility-based fault-tolerance comparator."""

import random

import pytest

from repro.core.credibility import CredibilityManager, CredibilityStrategy
from repro.core.runner import run_task
from repro.core.types import JobOutcome, TaskVerdict, VoteState


def build(target=0.99, f=0.3):
    manager = CredibilityManager(assumed_fault_fraction=f)
    return manager, CredibilityStrategy(manager, target=target)


class TestCredibilityManager:
    def test_new_node_credibility(self):
        manager = CredibilityManager(assumed_fault_fraction=0.3)
        assert manager.node_credibility(1) == pytest.approx(0.7)

    def test_credibility_grows_with_spot_checks(self):
        manager = CredibilityManager(assumed_fault_fraction=0.3)
        manager.spot_check(1, passed=True)
        manager.spot_check(1, passed=True)
        assert manager.node_credibility(1) == pytest.approx(1.0 - 0.3 / 3)

    def test_failed_spot_check_blacklists(self):
        manager = CredibilityManager()
        manager.spot_check(1, passed=False)
        assert manager.is_blacklisted(1)
        assert manager.node_credibility(1) == 0.5
        assert manager.blacklist_events == 1

    def test_whitewashing_resets_reputation(self):
        """A blacklisted node that rejoins under a new id is fresh again --
        the weakness Section 5.1 calls out."""
        manager = CredibilityManager(assumed_fault_fraction=0.3)
        manager.spot_check(1, passed=False)
        manager.forget(1)
        # Same physical machine, new identity 2: back to default trust.
        assert manager.node_credibility(2) == pytest.approx(0.7)
        assert not manager.is_blacklisted(2)

    def test_group_credibility_reduces_to_q(self):
        """With uniform credibilities the group formula is the paper's q."""
        from repro.core.confidence import confidence

        manager = CredibilityManager(assumed_fault_fraction=0.3)
        supporters = [10, 11, 12]  # all new nodes: credibility 0.7
        dissenters = [13]
        assert manager.group_credibility(supporters, dissenters) == pytest.approx(
            confidence(0.7, 3, 1)
        )

    def test_group_credibility_weights_trusted_nodes_more(self):
        manager = CredibilityManager(assumed_fault_fraction=0.3)
        for _ in range(20):
            manager.spot_check(1, passed=True)
        trusted = manager.group_credibility([1], [2])
        fresh = manager.group_credibility([3], [2])
        assert trusted > fresh

    def test_validation(self):
        with pytest.raises(ValueError):
            CredibilityManager(assumed_fault_fraction=0.0)


class TestCredibilityStrategy:
    def test_accepts_once_target_reached(self):
        manager, strategy = build(target=0.9)
        # Three fresh supporters (0.7 each) vs nobody: q = 0.7^3/(0.7^3+0.3^3)
        # = 0.927 >= 0.9.
        script = [JobOutcome(value=True, node_id=i) for i in range(3)]
        vote = VoteState()
        for i, outcome in enumerate(script):
            strategy.record_outcome(0, outcome)
            vote.record(outcome)
            decision = strategy.decide(vote)
            if decision.done:
                assert i == 2
                assert decision.accepted is True
                return
        pytest.fail("strategy never accepted")

    def test_dispatches_one_at_a_time(self):
        manager, strategy = build(target=0.999)
        vote = VoteState()
        outcome = JobOutcome(value=True, node_id=1)
        strategy.record_outcome(0, outcome)
        vote.record(outcome)
        decision = strategy.decide(vote)
        assert not decision.done
        assert decision.more_jobs == 1

    def test_max_group_forces_acceptance(self):
        manager = CredibilityManager(assumed_fault_fraction=0.49)
        strategy = CredibilityStrategy(manager, target=0.9999999, max_group=4)
        vote = VoteState()
        for i in range(4):
            outcome = JobOutcome(value=(i % 2 == 0), node_id=i)
            strategy.record_outcome(0, outcome)
            vote.record(outcome)
        decision = strategy.decide(vote)
        assert decision.done

    def test_task_finished_clears_state(self):
        manager, strategy = build()
        strategy.record_outcome(5, JobOutcome(value=True, node_id=1))
        strategy.task_finished(5, TaskVerdict(value=True, correct=None, jobs_used=1, waves=1))
        assert 5 not in strategy._task_votes

    def test_run_task_integration(self):
        rng = random.Random(3)
        manager, strategy = build(target=0.97)
        from repro.core.runner import bernoulli_source

        verdict = run_task(strategy, bernoulli_source(rng, 0.8), true_value=True, task_id=1)
        assert verdict.jobs_used >= 1
        assert verdict.value in (True, False)

    def test_validation(self):
        manager = CredibilityManager()
        with pytest.raises(ValueError):
            CredibilityStrategy(manager, target=0.4)
