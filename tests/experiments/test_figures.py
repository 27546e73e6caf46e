# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests that every experiment harness reproduces the paper's *shape*.

These are the acceptance tests of the reproduction: each figure's
qualitative claims, asserted against the harness output at test scale.
"""

import math

import pytest

from repro.experiments import examples_table, figure3, figure5a, figure5b, figure5c, figure6


@pytest.fixture(scope="module")
def fig3():
    return figure3.compute()


@pytest.fixture(scope="module")
def fig5a():
    return figure5a.compute(tasks=2_000, nodes=300, replications=2)


@pytest.fixture(scope="module")
def fig5b():
    return figure5b.compute(
        ks=(3, 9), ds=(2, 4), sat_vars=12, tasks=60, problems=2, nodes=120
    )


@pytest.fixture(scope="module")
def fig6():
    return figure6.compute(
        ks=(3, 9, 19), ds=(2, 4, 6), tasks=2_000, nodes=300, replications=2
    )


def interpolate_reliability_at_cost(series, cost):
    """Linear interpolation of a series' reliability at a given cost."""
    points = sorted(series.points, key=lambda p: p.cost)
    if cost <= points[0].cost or cost >= points[-1].cost:
        return None
    for a, b in zip(points, points[1:]):
        if a.cost <= cost <= b.cost:
            t = (cost - a.cost) / (b.cost - a.cost)
            return a.reliability + t * (b.reliability - a.reliability)
    return None


class TestFigure3:
    def test_three_series(self, fig3):
        assert [s.name for s in fig3.series] == ["TR", "PR", "IR"]

    def test_reliability_monotone_in_cost(self, fig3):
        for series in fig3.series:
            reliabilities = [p.reliability for p in series.points]
            assert reliabilities == sorted(reliabilities)

    def test_ordering_ir_above_pr_above_tr(self, fig3):
        """At each technique's own cost, the faster techniques dominate."""
        tr, pr, ir = fig3.series
        for point in tr.points:
            pr_val = interpolate_reliability_at_cost(pr, point.cost)
            if pr_val is not None:
                assert pr_val > point.reliability
        for point in pr.points:
            ir_val = interpolate_reliability_at_cost(ir, point.cost)
            if ir_val is not None:
                assert ir_val > point.reliability - 1e-9

    def test_paper_anchor_points(self, fig3):
        tr, pr, ir = fig3.series
        # Equal k: PR matches TR's reliability at lower cost.
        for tr_point, pr_point in zip(tr.points, pr.points):
            assert pr_point.reliability == pytest.approx(tr_point.reliability)
            if tr_point.cost > 1:
                assert pr_point.cost < tr_point.cost
        k19_tr = next(p for p in tr.points if p.label == "k=19")
        k19_pr = next(p for p in pr.points if p.label == "k=19")
        d4_ir = next(p for p in ir.points if p.label == "d=4")
        assert k19_tr.reliability == pytest.approx(0.967, abs=0.001)
        assert k19_pr.cost == pytest.approx(14.17, abs=0.05)
        assert d4_ir.cost == pytest.approx(9.35, abs=0.05)
        assert d4_ir.reliability == pytest.approx(0.967, abs=0.001)

    def test_renders(self, fig3):
        text = figure3.render(fig3)
        assert "Figure 3" in text
        assert "TR" in text and "IR" in text

    def test_main_smoke(self):
        assert "Figure 3" in figure3.main("smoke")


class TestFigure5a:
    def test_measured_tracks_analytic(self, fig5a):
        for series in fig5a.series:
            for point in series.points:
                assert point.cost == pytest.approx(
                    point.extra["analytic_cost"], rel=0.05
                )
                assert point.reliability == pytest.approx(
                    point.extra["analytic_reliability"], abs=0.03
                )

    def test_ir_dominates_at_comparable_cost(self, fig5a):
        tr, pr, ir = fig5a.series
        for point in tr.points:
            ir_val = interpolate_reliability_at_cost(ir, point.cost)
            if ir_val is not None:
                assert ir_val > point.reliability

    def test_renders(self, fig5a):
        assert "Figure 5(a)" in figure5a.render(fig5a)


class TestFigure5b:
    def test_all_problems_complete(self, fig5b):
        for series in fig5b.series:
            for point in series.points:
                assert not math.isnan(point.reliability)

    def test_derived_r_consistent_and_below_seeded(self, fig5b):
        estimates = [
            p.extra["derived_r"]
            for s in fig5b.series
            for p in s.points
            if not math.isnan(p.extra["derived_r"]) and p.cost > 2.0
        ]
        assert estimates
        # All estimates cluster below the 0.7 seeded ceiling.
        assert all(0.55 < e < 0.75 for e in estimates)
        assert sum(estimates) / len(estimates) < 0.72

    def test_ir_beats_tr_at_comparable_cost(self, fig5b):
        """IR(d=4) beats TR(k=9) on reliability at comparable-or-lower
        cost: the paper's headline, on the deployment substrate."""
        tr9 = next(p for p in fig5b.series_by_name("TR").points if p.label == "k=9")
        ir4 = next(p for p in fig5b.series_by_name("IR").points if p.label == "d=4")
        assert ir4.reliability > tr9.reliability
        assert ir4.cost < tr9.cost * 1.35

    def test_renders(self, fig5b):
        assert "Figure 5(b)" in figure5b.render(fig5b)


class TestFigure5c:
    def test_paper_quoted_values(self):
        result = figure5c.compute()
        pr = {p.cost: p.reliability for p in result.series[0].points}
        ir = {p.cost: p.reliability for p in result.series[1].points}
        # PR: rises monotonically toward ~1.9 at high r.
        pr_values = [pr[r] for r in sorted(pr)]
        assert pr_values == sorted(pr_values)
        assert 1.8 < pr_values[-1] <= 2.0
        # IR: >= 1.5 at the low end, peak > 2.5 in the 0.85-0.95 region,
        # easing off toward ~2.4-2.6 near r = 1.
        ir_values = [ir[r] for r in sorted(ir)]
        assert ir_values[0] >= 1.5
        peak = max(ir_values)
        assert peak > 2.5
        assert ir_values[-1] < peak
        peak_r = max(ir, key=ir.get)
        assert 0.8 <= peak_r <= 0.95

    def test_ir_beats_pr_everywhere(self):
        result = figure5c.compute()
        for pr_point, ir_point in zip(result.series[0].points, result.series[1].points):
            assert ir_point.reliability > pr_point.reliability

    def test_simulation_cross_check(self):
        result = figure5c.simulate_check(
            r_values=(0.7,), tasks=2_000, nodes=300, replications=2
        )
        point = result.series[0].points[0]
        # Measured improvement near the analytic ~2.0 at r = 0.7.
        assert 1.6 < point.reliability < 2.4

    def test_renders(self):
        assert "Figure 5(c)" in figure5c.render(figure5c.compute())


class TestFigure6:
    def test_response_ratios_in_paper_ranges(self, fig6):
        tr, pr, ir = fig6.series
        tr_by_param = {p.label: p.reliability for p in tr.points}
        # PR at the same k responds 1.2-3x slower than TR.
        for point in pr.points:
            ratio = point.reliability / tr_by_param[point.label]
            assert 1.1 < ratio < 3.2
        # IR at comparable cost also lands in the paper's 1.4-2.8 band
        # (compare d=4 with k=9-ish cost; use the nearest-cost TR point).
        for point in ir.points:
            nearest = min(tr.points, key=lambda t: abs(t.cost - point.cost))
            if point.cost > 2.5:  # skip the degenerate d<=2 points
                ratio = point.reliability / nearest.reliability
                assert 1.2 < ratio < 3.5

    def test_measured_matches_unloaded_model(self, fig6):
        """With follow-up priority, the loaded system stays close to the
        unloaded analytic response model."""
        for series in fig6.series:
            for point in series.points:
                assert point.reliability == pytest.approx(
                    point.extra["analytic_response"], rel=0.15
                )

    def test_renders(self, fig6):
        assert "Figure 6" in figure6.render(fig6)


class TestExamplesTable:
    def test_every_worked_example_agrees(self):
        rows = examples_table.compute()
        for row in rows:
            assert row.agrees, f"{row.claim}: computed {row.computed}"

    def test_renders(self):
        text = examples_table.main()
        assert "Table E1" in text
        assert "NO" not in text.replace("NO ", "")  # no disagreement markers
