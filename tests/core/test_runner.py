"""Tests for the substrate-free strategy runner and Monte-Carlo engine."""

import random

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.core.runner import (
    MonteCarloEstimate,
    WaveLimitExceeded,
    bernoulli_source,
    monte_carlo,
    run_task,
    scripted_source,
)
from repro.core.strategy import RedundancyStrategy
from repro.core.types import Decision, VoteState


class TestRunTask:
    def test_marks_correctness_against_truth(self):
        verdict = run_task(
            TraditionalRedundancy(3), scripted_source([True, True, False]), true_value=True
        )
        assert verdict.correct is True

    def test_correct_is_none_without_truth(self):
        verdict = run_task(TraditionalRedundancy(3), scripted_source([True] * 3))
        assert verdict.correct is None

    def test_wave_limit_guards_runaway(self):
        class Forever(RedundancyStrategy):
            name = "forever"

            def initial_jobs(self):
                return 1

            def decide(self, vote):
                return Decision.dispatch(1)

        with pytest.raises(WaveLimitExceeded):
            run_task(Forever(), scripted_source([True] * 100), max_waves=10)

    @pytest.mark.parametrize("max_waves", [0, -3])
    def test_rejects_a_wave_limit_below_one(self, max_waves):
        with pytest.raises(ValueError, match="max_waves"):
            run_task(
                TraditionalRedundancy(3),
                scripted_source([True] * 3),
                max_waves=max_waves,
            )

    def test_scripted_source_exhaustion_raises(self):
        with pytest.raises(IndexError):
            run_task(TraditionalRedundancy(5), scripted_source([True, True]))


class TestBernoulliSource:
    def test_extreme_probabilities(self):
        rng = random.Random(0)
        always = bernoulli_source(rng, 1.0)
        never = bernoulli_source(rng, 0.0)
        assert all(always(i).value is True for i in range(20))
        assert all(never(i).value is False for i in range(20))

    def test_custom_values(self):
        rng = random.Random(0)
        source = bernoulli_source(rng, 1.0, correct="yes", wrong="no")
        assert source(0).value == "yes"

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            bernoulli_source(random.Random(0), 1.5)

    def test_node_ids_attached(self):
        source = bernoulli_source(random.Random(0), 0.5)
        assert source(7).node_id == 7


class TestMonteCarlo:
    def test_deterministic_for_seed(self):
        a = monte_carlo(lambda: IterativeRedundancy(3), 0.7, 500, seed=1)
        b = monte_carlo(lambda: IterativeRedundancy(3), 0.7, 500, seed=1)
        assert a == b

    def test_estimate_properties(self):
        est = MonteCarloEstimate(tasks=100, correct=90, total_jobs=500, total_waves=150, max_jobs=9)
        assert est.reliability == pytest.approx(0.9)
        assert est.cost_factor == pytest.approx(5.0)
        assert est.mean_waves == pytest.approx(1.5)

    def test_traditional_cost_exact(self):
        est = monte_carlo(lambda: TraditionalRedundancy(5), 0.7, 300, seed=2)
        assert est.cost_factor == 5.0
        assert est.max_jobs == 5

    def test_requires_positive_tasks(self):
        with pytest.raises(ValueError):
            monte_carlo(lambda: IterativeRedundancy(2), 0.7, 0)

    def test_perfect_nodes_always_correct(self):
        est = monte_carlo(lambda: IterativeRedundancy(2), 0.9999, 200, seed=3)
        assert est.reliability > 0.99
