"""Unit and property tests for the confidence math (q, d, Theorems 1-2)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.confidence import (
    achievable_reliability,
    confidence,
    margin_confidence,
    required_agreement,
    required_margin,
)

reliabilities = st.floats(min_value=0.01, max_value=0.99)
high_reliabilities = st.floats(min_value=0.51, max_value=0.999)
targets = st.floats(min_value=0.501, max_value=0.9999)


def q_direct(r: float, a: int, b: int) -> float:
    """The paper's formula, computed literally (reference implementation)."""
    num = r**a * (1 - r) ** b
    den = num + (1 - r) ** a * r**b
    return num / den


class TestConfidence:
    def test_matches_paper_example_single_job(self):
        # "if the task server distributes only one job, there is a
        #  0.7 / (0.7 + 0.3) = 0.7 chance that the result is correct"
        assert confidence(0.7, 1, 0) == pytest.approx(0.7)

    def test_matches_paper_example_four_jobs(self):
        # 0.7^4 / (0.7^4 + 0.3^4); the paper rounds this to "> 0.97",
        # the exact value is 0.96736...
        expected = 0.7**4 / (0.7**4 + 0.3**4)
        assert confidence(0.7, 4, 0) == pytest.approx(expected)
        assert 0.967 < confidence(0.7, 4, 0) < 0.968

    def test_symmetric_counts_give_half(self):
        assert confidence(0.7, 3, 3) == pytest.approx(0.5)

    def test_minority_side_below_half(self):
        assert confidence(0.7, 1, 3) < 0.5

    def test_rejects_degenerate_r(self):
        for r in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                confidence(r, 1, 0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            confidence(0.7, -1, 0)

    @given(reliabilities, st.integers(0, 50), st.integers(0, 50))
    def test_property_matches_direct_formula(self, r, a, b):
        assert confidence(r, a, b) == pytest.approx(q_direct(r, a, b), rel=1e-9)

    @given(reliabilities, st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
    def test_property_theorem_1_invariance(self, r, a, b, j):
        """Theorem 1: q(r, a, b) = q(r, a+j, b+j)."""
        assert confidence(r, a, b) == pytest.approx(
            confidence(r, a + j, b + j), rel=1e-12
        )

    @given(reliabilities, st.integers(-40, 40))
    def test_property_complement(self, r, d):
        """Confidence of one side plus the other is 1."""
        assert margin_confidence(r, d) + margin_confidence(r, -d) == pytest.approx(1.0)

    @given(reliabilities, st.integers(-2000, 2000))
    def test_property_complement_within_one_ulp(self, r, d):
        """The expm1-based kernel makes the pair sum to 1 within 1 ulp,
        even for margins far beyond any experiment's."""
        total = margin_confidence(r, d) + margin_confidence(r, -d)
        assert abs(total - 1.0) <= math.ulp(1.0)

    @given(reliabilities, st.integers(0, 100), st.integers(0, 100))
    def test_property_confidence_complement_within_one_ulp(self, r, a, b):
        """Same guarantee through the public q(r, a, b) surface."""
        total = confidence(r, a, b) + confidence(r, b, a)
        assert abs(total - 1.0) <= math.ulp(1.0)

    def test_memoized_kernel_returns_identical_object_semantics(self):
        """Memoization must be observationally invisible: repeated calls
        give the exact same float, and validation still runs first."""
        first = margin_confidence(0.73, 5)
        second = margin_confidence(0.73, 5)
        assert first == second
        with pytest.raises(ValueError):
            margin_confidence(1.0, 5)

    @given(high_reliabilities, st.integers(0, 40))
    def test_property_monotone_in_margin(self, r, d):
        assert margin_confidence(r, d + 1) >= margin_confidence(r, d)

    def test_extreme_margin_is_stable(self):
        assert margin_confidence(0.9, 10_000) == pytest.approx(1.0)
        assert margin_confidence(0.9, -10_000) == pytest.approx(0.0, abs=1e-300)

    def test_paper_106_to_100_equals_6_to_0(self):
        """The paper's illustration: a 106-to-100 split instills the same
        confidence as a 6-to-0 split."""
        assert confidence(0.7, 106, 100) == pytest.approx(confidence(0.7, 6, 0))


class TestRequiredMargin:
    def test_paper_example_d_for_097(self):
        # required_margin is exact: q(0.7, 4, 0) = 0.9674 < 0.97, so the
        # strict answer is 5.  (The paper rounds 0.9674 to 0.97 and uses 4;
        # the experiments honour the paper's rounding explicitly.)
        assert required_margin(0.7, 0.967) == 4
        assert required_margin(0.7, 0.97) == 5

    def test_target_half_or_below_needs_zero(self):
        assert required_margin(0.7, 0.5) == 0
        assert required_margin(0.7, 0.3) == 0

    def test_unreachable_at_low_r(self):
        with pytest.raises(ValueError):
            required_margin(0.5, 0.9)
        with pytest.raises(ValueError):
            required_margin(0.4, 0.9)

    def test_invalid_target(self):
        for target in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                required_margin(0.7, target)

    @given(high_reliabilities, targets)
    def test_property_minimality(self, r, target):
        """d is the *minimum* margin meeting the target."""
        d = required_margin(r, target)
        assert margin_confidence(r, d) >= target
        if d > 0:
            assert margin_confidence(r, d - 1) < target

    @given(high_reliabilities, targets, st.integers(0, 20))
    def test_property_required_agreement_is_margin_plus_b(self, r, target, b):
        """Theorem 1 corollary: d(r, R, b) = d(r, R, 0) + b."""
        assert required_agreement(r, target, b) == required_margin(r, target) + b


class TestAchievableReliability:
    def test_matches_equation_6(self):
        r, d = 0.7, 4
        expected = r**d / (r**d + (1 - r) ** d)
        assert achievable_reliability(r, d) == pytest.approx(expected)

    def test_zero_margin_is_coin_flip(self):
        assert achievable_reliability(0.7, 0) == pytest.approx(0.5)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            achievable_reliability(0.7, -1)


class TestTheorem2:
    """Theorem 2: for a Bernoulli X, observing b + d heads out of 2b + d
    samples yields a P(X biased to heads) that depends only on d."""

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(0, 15),
        st.integers(0, 15),
        st.integers(0, 15),
    )
    def test_posterior_depends_only_on_margin(self, p, d, b1, b2):
        def posterior(b):
            heads = b + d
            tails = b
            # P(biased-to-heads | data) under the two-point prior used in
            # the theorem's proof.
            like_heads = p**heads * (1 - p) ** tails
            like_tails = p**tails * (1 - p) ** heads
            return like_heads / (like_heads + like_tails)

        assert posterior(b1) == pytest.approx(posterior(b2), rel=1e-9)

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(0, 30))
    def test_closed_form_from_proof(self, p, d):
        """The proof's final form: c = P(X)^d / (P(X)^d + (1-P(X))^d)."""
        heads = 10 + d
        tails = 10
        like_heads = p**heads * (1 - p) ** tails
        like_tails = p**tails * (1 - p) ** heads
        posterior = like_heads / (like_heads + like_tails)
        closed = p**d / (p**d + (1 - p) ** d)
        assert posterior == pytest.approx(closed, rel=1e-9)
