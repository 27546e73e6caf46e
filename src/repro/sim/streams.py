"""Typed RNG stream labels: the canonical names of the registry streams.

The determinism discipline says every subsystem draws from its own named
:class:`~repro.sim.rng.RngRegistry` stream.  The *names* of those
streams are part of the reproducibility contract -- a collision silently
couples two subsystems' draw sequences -- so the canonical ones live
here as module-level constants instead of being scattered as string
literals.

:class:`StreamLabel` is a ``str`` subclass, so a constant drops into
``registry.stream(...)`` unchanged at runtime; its value is what static
analysis sees.  The per-file literal rule (RL005) resolves a
module-level ``StreamLabel("...")`` binding to its literal value, so
``rng.stream(NODE_SELECTION)`` is as auditable as
``rng.stream("node-selection")`` -- and the constant also gives the
label one greppable definition site and a type annotation for
stream-taking APIs.

Per-index families (``f"replicate:{i}"``) stay f-strings with a literal
prefix; only the fixed singleton streams get constants.
"""

from __future__ import annotations

__all__ = [
    "StreamLabel",
    "NODE_SELECTION",
    "DURATIONS",
    "FAILURES",
    "SPOT_CHECKS",
    "CHURN",
]


class StreamLabel(str):
    """A canonical RNG stream name (a plain ``str`` at runtime)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StreamLabel({str.__repr__(self)})"


#: Which node executes each dispatched job (DCA task server).
NODE_SELECTION = StreamLabel("node-selection")
#: Job execution durations (DCA task server).
DURATIONS = StreamLabel("durations")
#: Per-job failure draws (DCA task server).
FAILURES = StreamLabel("failures")
#: Spot-check scheduling draws (DCA task server).
SPOT_CHECKS = StreamLabel("spot-checks")
#: Node arrival/departure churn process.
CHURN = StreamLabel("churn")
