"""The closed forms cross-validated against full DES replications.

Figures 5 and 6 print Equations (1)-(6) of :mod:`repro.core.analysis`
next to every simulated point; this checks that the one entry point the
figures measure a point through (``dca_replicate_specs`` ->
``run_dca_replicates`` -> ``measurement_from_envelopes``) agrees with
them.  In the idealised regime the equations model -- homogeneous
reliability, no churn, ample nodes so the system is unloaded --
simulation means over thousands of tasks agree with the closed forms
within

* reliability: +-0.02 absolute (binomial noise at 2000 tasks),
* cost factor: +-5% relative,
* response time: +-10% relative (the unloaded model assumes every wave
  starts instantly; ample nodes make that nearly true).

``max_jobs`` is not cross-validated: the simulation reports the realised
maximum over its tasks, which has no closed form for iterative
redundancy (Section 5.2).
"""

import pytest

from repro.core import (
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
    analysis,
)
from repro.experiments.common import measurement_from_envelopes
from repro.parallel import dca_replicate_specs, run_dca_replicates

R = 0.7
UNLOADED = dict(tasks=2000, nodes=4000, reliability=R, replications=2, seed=7)

#: Per technique: (strategy factory, closed-form reliability, closed-form
#: cost, ``expected_response_time`` technique name, its k or d).
CLOSED_FORMS = {
    "TR5": (
        lambda: TraditionalRedundancy(5),
        analysis.traditional_reliability(R, 5),
        analysis.traditional_cost(5),
        "traditional",
        5,
    ),
    "PR7": (
        lambda: ProgressiveRedundancy(7),
        analysis.progressive_reliability(R, 7),
        analysis.progressive_cost(R, 7),
        "progressive",
        7,
    ),
    "IR3": (
        lambda: IterativeRedundancy(3),
        analysis.iterative_reliability(R, 3),
        analysis.iterative_cost(R, 3),
        "iterative",
        3,
    ),
}


class TestCrossValidationAgainstSimulation:
    """The closed forms must predict what the DES measures."""

    @pytest.mark.parametrize("technique", sorted(CLOSED_FORMS))
    def test_analytic_matches_unloaded_simulation(self, technique):
        factory, reliability, cost, name, param = CLOSED_FORMS[technique]
        sim = measurement_from_envelopes(
            run_dca_replicates(dca_replicate_specs(factory, **UNLOADED))
        )
        # reprolint: disable-next-line=RL003 -- pytest.approx is the tolerance
        assert reliability == pytest.approx(sim.mean_reliability, abs=0.02)
        assert cost == pytest.approx(sim.mean_cost, rel=0.05)
        assert analysis.expected_response_time(R, name, param) == pytest.approx(
            sim.mean_response_time, rel=0.10
        )
