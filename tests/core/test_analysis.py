# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for the closed-form analysis (Equations (1)-(6)) including the
paper's worked examples and cross-checks between independent computations."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import analysis as A
from repro.core.runner import monte_carlo
from repro.core import IterativeRedundancy, ProgressiveRedundancy, TraditionalRedundancy

odd_k = st.integers(1, 10).map(lambda i: 2 * i - 1)
margins = st.integers(1, 12)
mid_r = st.floats(min_value=0.55, max_value=0.95)


class TestTraditional:
    def test_cost_is_k(self):
        assert A.traditional_cost(19) == 19.0

    def test_k1_reliability_is_r(self):
        assert A.traditional_reliability(0.7, 1) == pytest.approx(0.7)

    def test_paper_example_k19(self):
        """Paper: k=19, r=0.7 gives system reliability 0.97 (rounded)."""
        assert A.traditional_reliability(0.7, 19) == pytest.approx(0.9674, abs=5e-4)

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            A.traditional_reliability(0.7, 4)

    @given(mid_r, odd_k)
    def test_property_reliability_increases_with_k(self, r, k):
        assert A.traditional_reliability(r, k + 2) >= A.traditional_reliability(r, k) - 1e-12

    @given(st.floats(min_value=0.05, max_value=0.45), odd_k)
    def test_property_low_r_reliability_decreases_with_k(self, r, k):
        """Below r = 0.5 redundancy actively hurts."""
        assert A.traditional_reliability(r, k + 2) <= A.traditional_reliability(r, k) + 1e-12

    @given(mid_r, odd_k)
    def test_property_complement_symmetry(self, r, k):
        """R(r, k) + R(1-r, k) = 1 in the binary model."""
        assert A.traditional_reliability(r, k) + A.traditional_reliability(
            1.0 - r, k
        ) == pytest.approx(1.0)


class TestProgressive:
    def test_reliability_equals_traditional(self):
        for k in (3, 7, 19):
            assert A.progressive_reliability(0.7, k) == A.traditional_reliability(0.7, k)

    def test_paper_example_cost_14_2(self):
        """Paper: k=19, r=0.7 costs 14.2x (1.3x below traditional)."""
        cost = A.progressive_cost(0.7, 19)
        assert cost == pytest.approx(14.2, abs=0.05)
        assert 19.0 / cost == pytest.approx(1.3, abs=0.05)

    def test_k1_cost_is_one(self):
        assert A.progressive_cost(0.7, 1) == pytest.approx(1.0)

    @given(mid_r, odd_k)
    @example(0.7, 39)
    @settings(max_examples=40, deadline=None)
    def test_property_equation3_matches_wave_dp(self, r, k):
        """The paper's printed formula equals the wave-process DP."""
        assert A.progressive_cost(r, k) == pytest.approx(
            A.progressive_cost_dp(r, k), rel=1e-9
        )

    @given(mid_r, odd_k)
    @settings(max_examples=40, deadline=None)
    def test_property_cost_bounds(self, r, k):
        """(k+1)/2 <= C_PR <= k."""
        cost = A.progressive_cost(r, k)
        assert (k + 1) / 2 - 1e-9 <= cost <= k + 1e-9

    def test_cost_approaches_consensus_at_high_r(self):
        assert A.progressive_cost(0.999, 19) == pytest.approx(10.0, abs=0.1)

    def test_cost_approaches_k_at_half_r(self):
        # "If r is close to 0.5, the cost factor of k-vote progressive
        #  redundancy is close to k" -- i.e. the improvement over TR is
        #  smallest there.  Exact value at r=0.5 is ~16.5 for k=19.
        cost_half = A.progressive_cost(0.501, 19)
        assert cost_half > A.progressive_cost(0.9, 19)
        assert 15.5 < cost_half <= 19.0

    def test_monte_carlo_agreement(self):
        est = monte_carlo(lambda: ProgressiveRedundancy(9), 0.7, 20_000, seed=11)
        assert est.cost_factor == pytest.approx(A.progressive_cost(0.7, 9), rel=0.02)
        assert est.reliability == pytest.approx(A.progressive_reliability(0.7, 9), abs=0.01)
        assert est.max_jobs <= 9


class TestIterative:
    def test_equation6_reliability(self):
        r, d = 0.7, 4
        assert A.iterative_reliability(r, d) == pytest.approx(
            r**d / (r**d + (1 - r) ** d)
        )

    def test_paper_example_cost_9_4(self):
        """Paper: r=0.7, d=4 (R ~ 0.97) costs 9.4x; 1.5x below progressive
        and 2.0x below traditional."""
        cost = A.iterative_cost(0.7, 4)
        assert cost == pytest.approx(9.4, abs=0.1)
        assert A.progressive_cost(0.7, 19) / cost == pytest.approx(1.5, abs=0.05)
        assert 19.0 / cost == pytest.approx(2.0, abs=0.05)

    @given(mid_r, margins)
    @settings(max_examples=40, deadline=None)
    def test_property_closed_form_matches_series(self, r, d):
        """Gambler's-ruin closed form equals the Equation (5) series."""
        assert A.iterative_cost(r, d) == pytest.approx(
            A.iterative_cost_series(r, d), rel=1e-6
        )

    @given(margins)
    def test_property_symmetric_walk_cost_is_d_squared(self, d):
        assert A.iterative_cost(0.5, d) == pytest.approx(float(d * d))

    @given(mid_r, margins)
    def test_property_approximation_is_upper_bound_and_converges(self, r, d):
        """d/(2r-1) >= exact cost, tight as d grows (R -> 1)."""
        exact = A.iterative_cost(r, d)
        approx = A.iterative_cost_approx(r, d)
        assert approx >= exact - 1e-12
        if A.iterative_reliability(r, d) > 0.999:
            # The relative error approaches 2*(1-R) from above, so just
            # past the R=0.999 gate it can reach ~2.004e-3; 2e-3 exactly
            # was a knife-edge that Hypothesis eventually found.
            assert approx == pytest.approx(exact, rel=2.5e-3)

    def test_job_distribution_parity_and_mass(self):
        """Totals are d + 2b and the probabilities sum to ~1."""
        pairs = list(A.iterative_job_distribution(0.7, 3))
        assert all((jobs - 3) % 2 == 0 for jobs, _ in pairs)
        assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-9)

    def test_monte_carlo_agreement(self):
        est = monte_carlo(lambda: IterativeRedundancy(4), 0.7, 20_000, seed=5)
        assert est.cost_factor == pytest.approx(A.iterative_cost(0.7, 4), rel=0.02)
        assert est.reliability == pytest.approx(A.iterative_reliability(0.7, 4), abs=0.01)

    @given(mid_r, margins)
    @settings(max_examples=30, deadline=None)
    def test_property_ir_beats_pr_beats_tr_at_equal_reliability(self, r, d):
        """The paper's headline: at matched reliability, C_IR <= C_PR <= C_TR.

        Matched exactly via the continuous-k Beta interpolation.
        """
        target = A.iterative_reliability(r, d)
        if target >= 0.99999:  # interpolation loses meaning at saturation
            return
        k_real = A.continuous_traditional_k(r, target)
        c_ir = A.iterative_cost(r, d)
        assert c_ir <= k_real + 1e-6
        # PR sits between: compare at the bracketing odd k's.
        k_hi = int(2 * math.ceil((k_real + 1) / 2) - 1)
        if k_hi >= 3:
            assert A.progressive_cost(r, k_hi) <= k_hi + 1e-9


class TestWaveAndResponseModels:
    def test_traditional_single_wave(self):
        assert A.expected_response_time(0.7, "traditional", 19) == pytest.approx(
            A.expected_wave_duration(19)
        )

    def test_wave_duration_formula(self):
        # E[max of n U(0.5, 1.5)] = 0.5 + n/(n+1)
        assert A.expected_wave_duration(1) == pytest.approx(1.0)
        assert A.expected_wave_duration(19) == pytest.approx(0.5 + 19 / 20)

    def test_wave_duration_invalid(self):
        with pytest.raises(ValueError):
            A.expected_wave_duration(0)

    def test_progressive_waves_bounded(self):
        waves = A.progressive_expected_waves(0.7, 19)
        assert 1.0 <= waves <= 10.0

    def test_iterative_waves_reasonable(self):
        waves = A.iterative_expected_waves(0.7, 4)
        assert 1.0 <= waves <= 10.0

    def test_response_time_ordering_matches_figure6(self):
        """PR and IR respond slower than TR at the same parameters; the
        paper measures 1.4-2.8x."""
        tr = A.expected_response_time(0.7, "traditional", 19)
        pr = A.expected_response_time(0.7, "progressive", 19)
        ir = A.expected_response_time(0.7, "iterative", 4)
        assert pr > tr
        assert ir > tr
        assert 1.2 < pr / tr < 3.0
        assert 1.2 < ir / tr < 3.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            A.expected_response_time(0.7, "quantum", 3)


class TestContinuousInterpolation:
    def test_continuous_k_inverts_reliability(self):
        target = A.traditional_reliability(0.7, 9)
        assert A.continuous_traditional_k(0.7, target) == pytest.approx(9.0, abs=1e-6)

    def test_continuous_margin_inverts_equation6(self):
        target = A.iterative_reliability(0.7, 5)
        assert A.continuous_iterative_margin(0.7, target) == pytest.approx(5.0, abs=1e-9)

    def test_rejects_r_at_or_below_half(self):
        with pytest.raises(ValueError):
            A.continuous_traditional_k(0.5, 0.9)
        with pytest.raises(ValueError):
            A.continuous_iterative_margin(0.45, 0.9)


class TestFigure5cImprovement:
    def test_pr_improvement_rises_toward_two(self):
        low = A.improvement_over_traditional(0.55)[0]
        high = A.improvement_over_traditional(0.99)[0]
        assert low < 1.3
        assert 1.8 < high <= 2.0

    def test_ir_improvement_shape(self):
        """At least ~1.6 near r = 0.5, peaks near r ~ 0.86-0.9, then dips."""
        near_half = A.improvement_over_traditional(0.55)[1]
        peak_region = A.improvement_over_traditional(0.9)[1]
        near_one = A.improvement_over_traditional(0.99)[1]
        assert near_half >= 1.5
        assert peak_region > 2.5
        assert 2.2 < near_one < peak_region

    def test_ir_always_beats_pr(self):
        for r in (0.55, 0.7, 0.85, 0.95):
            pr, ir = A.improvement_over_traditional(r)
            assert ir > pr


class TestHeterogeneous:
    def test_matches_homogeneous_case(self):
        assert A.traditional_reliability_heterogeneous([0.7] * 5) == pytest.approx(
            A.traditional_reliability(0.7, 5)
        )

    def test_mixed_pool(self):
        """One perfect node among coin-flippers: P(majority of 3 correct)
        = P(perfect ok) * P(at least 1 of 2 flips ok) = 0.75."""
        value = A.traditional_reliability_heterogeneous([0.999999, 0.5, 0.5])
        assert value == pytest.approx(0.75, abs=1e-4)

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            A.traditional_reliability_heterogeneous([0.7, 0.7])

    @given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=9))
    @settings(max_examples=30, deadline=None)
    def test_property_dp_is_valid_probability(self, rs):
        if len(rs) % 2 == 0:
            rs = rs + [0.7]
        value = A.traditional_reliability_heterogeneous(rs)
        assert 0.0 <= value <= 1.0
