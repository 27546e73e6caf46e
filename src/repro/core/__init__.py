"""The paper's contribution: redundancy strategies and their analysis.

This package is substrate-independent.  Each redundancy technique is a
:class:`~repro.core.strategy.RedundancyStrategy`: a pure decision function
from a running vote :class:`~repro.core.types.VoteState` to a
:class:`~repro.core.types.Decision` (dispatch more jobs, or accept a
result).  The same strategy objects drive

* the closed-form analysis in :mod:`repro.core.analysis` (Equations (1)-(6)
  of the paper),
* the discrete-event DCA model in :mod:`repro.dca`, and
* the BOINC-like volunteer substrate in :mod:`repro.volunteer`.

The three techniques from the paper:

* :class:`~repro.core.traditional.TraditionalRedundancy` -- k-modular
  redundancy (Figure 2a),
* :class:`~repro.core.progressive.ProgressiveRedundancy` -- Figure 2b,
* :class:`~repro.core.iterative.IterativeRedundancy` -- the margin
  algorithm of Figure 4 (the paper's contribution).

Plus comparators discussed in Sections 5-6:

* :class:`~repro.core.iterative_complex.ComplexIterativeRedundancy` -- the
  naive, r-aware form of iterative redundancy (Theorem 1 proves it
  dispatches identically to the simple form),
* :class:`~repro.core.credibility.CredibilityStrategy` -- credibility-based
  fault tolerance (Sarmenta),
* :class:`~repro.core.adaptive.AdaptiveReplication` -- BOINC-style
  adaptive replication,
* :class:`~repro.core.noredundancy.NoRedundancy` -- the k = 1 baseline.
"""

from repro.core.types import (
    Decision,
    JobOutcome,
    ResultValue,
    TaskVerdict,
    VoteState,
)
from repro.core.voting import (
    consensus_reached,
    majority_value,
    plurality_value,
    tally_results,
)
from repro.core.confidence import (
    confidence,
    margin_confidence,
    required_agreement,
    required_margin,
)
from repro.core.strategy import RedundancyStrategy
from repro.core.noredundancy import NoRedundancy
from repro.core.traditional import TraditionalRedundancy
from repro.core.progressive import ProgressiveRedundancy
from repro.core.iterative import IterativeRedundancy
from repro.core.iterative_complex import ComplexIterativeRedundancy
from repro.core.credibility import CredibilityManager, CredibilityStrategy
from repro.core.adaptive import AdaptiveReplication
from repro.core import analysis, estimation, sprt

__all__ = [
    "AdaptiveReplication",
    "ComplexIterativeRedundancy",
    "CredibilityManager",
    "CredibilityStrategy",
    "Decision",
    "IterativeRedundancy",
    "JobOutcome",
    "NoRedundancy",
    "ProgressiveRedundancy",
    "RedundancyStrategy",
    "ResultValue",
    "TaskVerdict",
    "TraditionalRedundancy",
    "VoteState",
    "analysis",
    "confidence",
    "estimation",
    "sprt",
    "consensus_reached",
    "majority_value",
    "margin_confidence",
    "plurality_value",
    "required_agreement",
    "required_margin",
    "tally_results",
]
