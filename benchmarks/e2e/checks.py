"""Statistical correctness gate for one benchmark iteration.

No byte checksums are committed: a change that legitimately alters the
random draws (another engine, another stream layout) must still pass, so
every iteration is judged on fidelity to the paper's closed forms
(:mod:`repro.core.analysis`) instead.

* Reliability: binomial z-score of the measured fraction of correct
  tasks against Equations (2), (4) and (6).
* Cost factor: central-limit z-score of the measured jobs per task
  against Equations (1), (3) and (5).  The per-task variance is 0 for TR
  (always exactly ``k`` jobs), exact for IR (from
  :func:`~repro.core.analysis.iterative_job_distribution`), and bounded
  for PR by Popoviciu's inequality: a PR task uses between ``ceil(k/2)``
  and ``k`` jobs, so its variance is at most ``(k - ceil(k/2))**2 / 4``.

The z limit is derived, not picked: a correct iteration fails the gate
with probability at most :data:`FALSE_FAILURE`, split evenly (Bonferroni)
over the iteration's z-tests.  With a flat ``|z| <= 4``, the reliability
tests alone would fail a correct figure-sweep iteration on about one seed
in 750 (exact binomial tails at 3000 tasks per point).

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List

from repro.core import analysis

#: Declared chance that a correct iteration fails its checks.
FALSE_FAILURE = 1e-5


def z_limit(tests: int) -> float:
    """Largest |z| allowed when an iteration makes ``tests`` z-tests."""
    return NormalDist().inv_cdf(1.0 - FALSE_FAILURE / (2 * tests))


@dataclass(frozen=True)
class Expectation:
    """Closed-form reliability and cost of one technique at one ``r``."""

    label: str
    reliability: float
    cost: float
    cost_variance: float


def expectation(technique: str, param: int, r: float) -> Expectation:
    """The closed forms for ``technique`` in {"TR", "PR", "IR"}."""
    if technique == "TR":
        return Expectation(
            f"TR k={param}",
            analysis.traditional_reliability(r, param),
            analysis.traditional_cost(param),
            0.0,
        )
    if technique == "PR":
        spread = param - math.ceil(param / 2)
        return Expectation(
            f"PR k={param}",
            analysis.progressive_reliability(r, param),
            analysis.progressive_cost(r, param),
            spread * spread / 4.0,
        )
    if technique == "IR":
        first = second = 0.0
        for jobs, probability in analysis.iterative_job_distribution(r, param):
            first += jobs * probability
            second += jobs * jobs * probability
        return Expectation(
            f"IR d={param}",
            analysis.iterative_reliability(r, param),
            analysis.iterative_cost(r, param),
            second - first * first,
        )
    raise ValueError(f"unknown technique {technique!r}")


def check_point(
    expected: Expectation, *, tasks: int, reliability: float, cost: float, z_max: float
) -> List[str]:
    """Judge one measured (reliability, cost) over ``tasks`` tasks."""
    failures = []
    p = expected.reliability
    z_rel = (reliability - p) / math.sqrt(p * (1.0 - p) / tasks)
    if abs(z_rel) > z_max:
        failures.append(
            f"{expected.label}: reliability {reliability:.6f} vs {p:.6f} "
            f"(z = {z_rel:+.2f} beyond {z_max:.2f}, n = {tasks})"
        )
    if expected.cost_variance > 0.0:
        z_cost = (cost - expected.cost) / math.sqrt(expected.cost_variance / tasks)
        if abs(z_cost) > z_max:
            failures.append(
                f"{expected.label}: cost {cost:.6f} vs {expected.cost:.6f} "
                f"(z = {z_cost:+.2f} beyond {z_max:.2f}, n = {tasks})"
            )
    elif not math.isclose(cost, expected.cost, rel_tol=1e-12):
        failures.append(
            f"{expected.label}: cost {cost!r} must be exactly {expected.cost!r}"
        )
    return failures
