"""Cross-substrate agreement: the same strategy must measure the same on
all three execution substrates.

The strategies are pure wave deciders, so the substrate-free runner, the
discrete-event DCA model, and the volunteer pull substrate are three
independent transports around identical decision logic.  Their measured
cost factors and reliabilities must agree (within sampling error) with
each other and with the closed forms -- the strongest internal-validity
check the reproduction has.
"""

import pytest

from repro.core import (
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
    analysis,
)
from repro.core.runner import monte_carlo
from repro.dca import DcaConfig, run_dca
from repro.volunteer import PlanetLabTestbed, VolunteerConfig, run_volunteer

R = 0.7
TASKS = 3_000

CASES = [
    (
        "traditional-k9",
        lambda: TraditionalRedundancy(9),
        analysis.traditional_cost(9),
        analysis.traditional_reliability(R, 9),
    ),
    (
        "progressive-k9",
        lambda: ProgressiveRedundancy(9),
        analysis.progressive_cost(R, 9),
        analysis.progressive_reliability(R, 9),
    ),
    (
        "iterative-d3",
        lambda: IterativeRedundancy(3),
        analysis.iterative_cost(R, 3),
        analysis.iterative_reliability(R, 3),
    ),
]


def volunteer_testbed():
    """A clean testbed whose only failure source is the seeded 30% wrong
    results -- making its effective r exactly 0.7, comparable with the
    other substrates."""
    return PlanetLabTestbed(
        nodes=150,
        seeded_fault_prob=1.0 - R,
        natural_fault_max=0.0,
        unresponsive_max=0.0,
        speed_sigma=0.0,
    )


@pytest.mark.parametrize("name,factory,cost_expected,rel_expected", CASES)
def test_three_substrates_agree(name, factory, cost_expected, rel_expected):
    runner_estimate = monte_carlo(factory, R, TASKS, seed=101)
    dca_report = run_dca(
        DcaConfig(strategy=factory(), tasks=TASKS, nodes=300, reliability=R, seed=102)
    )
    volunteer_report = run_volunteer(
        VolunteerConfig(
            strategy=factory(),
            testbed=volunteer_testbed(),
            use_sat=False,
            tasks=1_000,
            seed=103,
        )
    )
    for cost, reliability, source in (
        (runner_estimate.cost_factor, runner_estimate.reliability, "runner"),
        (dca_report.cost_factor, dca_report.system_reliability, "dca"),
        (volunteer_report.cost_factor, volunteer_report.system_reliability, "volunteer"),
    ):
        assert cost == pytest.approx(cost_expected, rel=0.06), f"{name}/{source} cost"
        assert reliability == pytest.approx(rel_expected, abs=0.035), (
            f"{name}/{source} reliability"
        )


def test_progressive_job_cap_holds_on_every_substrate():
    """PR's <= k responses bound must hold everywhere."""
    k = 7
    runner_estimate = monte_carlo(lambda: ProgressiveRedundancy(k), R, 2_000, seed=7)
    assert runner_estimate.max_jobs <= k
    dca_report = run_dca(
        DcaConfig(
            strategy=ProgressiveRedundancy(k), tasks=2_000, nodes=300, reliability=R, seed=8
        )
    )
    assert dca_report.max_jobs_per_task <= k
    volunteer_report = run_volunteer(
        VolunteerConfig(
            strategy=ProgressiveRedundancy(k),
            testbed=volunteer_testbed(),
            use_sat=False,
            tasks=800,
            seed=9,
        )
    )
    assert volunteer_report.max_jobs_per_task <= k


def test_iterative_max_jobs_matches_tail_quantile():
    """The DES's observed per-task maximum sits inside the analytic tail:
    above the 99th percentile of the job-count distribution for a run of
    thousands of tasks, but far below any runaway."""
    d = 4
    report = run_dca(
        DcaConfig(strategy=IterativeRedundancy(d), tasks=5_000, nodes=300, reliability=R, seed=10)
    )
    q99 = analysis.iterative_job_quantile(R, d, 0.99)
    q999999 = analysis.iterative_job_quantile(R, d, 0.999999)
    assert report.max_jobs_per_task >= q99
    assert report.max_jobs_per_task <= q999999 * 2
