"""Tests for the SPRT interpretation of iterative redundancy."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analysis
from repro.core.confidence import required_margin
from repro.core.sprt import (
    SprtDesign,
    design_from_margin,
    llr_per_vote,
    margin_for_error_rate,
    wald_expected_samples,
)

mid_r = st.floats(min_value=0.55, max_value=0.95)
margins = st.integers(1, 12)


class TestLlr:
    def test_symmetric_at_half(self):
        assert llr_per_vote(0.5) == 0.0

    def test_sign(self):
        assert llr_per_vote(0.7) > 0
        assert llr_per_vote(0.3) < 0

    def test_antisymmetry(self):
        assert llr_per_vote(0.7) == pytest.approx(-llr_per_vote(0.3))

    def test_validation(self):
        with pytest.raises(ValueError):
            llr_per_vote(1.0)


class TestDesign:
    def test_error_rate_matches_equation_6(self):
        design = design_from_margin(0.7, 4)
        assert design.reliability == pytest.approx(analysis.iterative_reliability(0.7, 4))

    def test_expected_samples_is_cost_factor(self):
        design = design_from_margin(0.7, 4)
        assert design.expected_samples == pytest.approx(analysis.iterative_cost(0.7, 4))

    def test_threshold_scales_with_margin(self):
        d3 = design_from_margin(0.8, 3)
        d6 = design_from_margin(0.8, 6)
        assert d6.threshold == pytest.approx(2 * d3.threshold)

    def test_validation(self):
        with pytest.raises(ValueError):
            design_from_margin(0.7, 0)


class TestMarginForErrorRate:
    @given(mid_r, st.floats(min_value=0.001, max_value=0.3))
    @settings(max_examples=100, deadline=None)
    def test_property_agrees_with_required_margin(self, r, alpha):
        """Wald's threshold derivation and the paper's q-based derivation
        give the same margin."""
        assert margin_for_error_rate(r, alpha) == max(
            1, required_margin(r, 1.0 - alpha)
        )

    @given(mid_r, st.floats(min_value=0.001, max_value=0.3))
    @settings(max_examples=50, deadline=None)
    def test_property_minimality(self, r, alpha):
        d = margin_for_error_rate(r, alpha)
        assert 1.0 - analysis.iterative_reliability(r, d) <= alpha + 1e-12
        if d > 1:
            assert 1.0 - analysis.iterative_reliability(r, d - 1) > alpha

    def test_validation(self):
        with pytest.raises(ValueError):
            margin_for_error_rate(0.7, 0.5)
        with pytest.raises(ValueError):
            margin_for_error_rate(0.5, 0.1)


class TestWaldIdentity:
    @given(mid_r, margins)
    def test_property_wald_equals_gamblers_ruin(self, r, d):
        """Two independent derivations of Equation (5)'s closed form."""
        assert wald_expected_samples(r, d) == pytest.approx(
            analysis.iterative_cost(r, d), rel=1e-12
        )

    def test_symmetric_case(self):
        assert wald_expected_samples(0.5, 5) == 25.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wald_expected_samples(0.7, 0)
