"""Result envelopes: what a worker ships back from one replicate.

Workers never return full simulation reports -- a 100k-task run carries
100k per-task records and pickling them back through the pool would
swamp the parallel speedup.  Instead each replicate is reduced *inside
the worker* to a flat metrics mapping plus a fingerprint of that
mapping, so the parent can aggregate and cross-check serial-vs-parallel
equality from a few hundred bytes per replicate.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


def fingerprint_of(metrics: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON rendering of ``metrics``.

    Canonical means sorted keys and ``repr``-shortest float rendering, so
    two runs fingerprint identically iff their metrics are byte-identical
    after JSON encoding.  Non-JSON values fall back to ``repr``.
    """
    canonical = json.dumps(metrics, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReplicateEnvelope:
    """One replicate's outcome, as shipped back by a worker.

    Attributes:
        position: Index of the replicate in the submitted spec list (the
            reducer aggregates in this order, never completion order).
            A worker does not know it and ships ``-1``;
            :func:`~repro.parallel.engine.fan_out` stamps the true one.
        seed: The replicate's derived root seed.
        metrics: Flat metric mapping (the substrate report's
            ``as_dict()``).
        fingerprint: :func:`fingerprint_of` the metrics.
        duration: Worker-side wall-clock seconds spent on the replicate.
        worker_pid: PID of the process that ran it (diagnostics only;
            excluded from fingerprints and aggregation).
        telemetry: Optional :meth:`~repro.obs.TelemetryRecorder.as_payload`
            mapping recorded inside the worker when the spec asked for
            telemetry.  Like ``worker_pid``, it is observability sidecar
            data: excluded from fingerprints and metric aggregation.
        columns: Optional :class:`~repro.parallel.shm.ColumnBlockHandle`
            referencing the replicate's bulk per-task columns in shared
            memory (the out-of-band transport; see
            :mod:`repro.parallel.shm`).  A reference, not data: excluded
            from fingerprints, and whoever consumes the envelope owns
            the segment's release.
    """

    position: int
    seed: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    duration: float = 0.0
    worker_pid: int = 0
    telemetry: Optional[Dict[str, Any]] = None
    columns: Optional[Any] = None

    @classmethod
    def from_worker(
        cls,
        seed: int,
        metrics: Dict[str, Any],
        started: float,
        *,
        telemetry: Optional[Dict[str, Any]] = None,
        columns: Optional[Any] = None,
    ) -> "ReplicateEnvelope":
        """The envelope a worker ships back for ``metrics``.

        ``started`` is the worker's ``time.perf_counter()`` reading when
        the item began; the position is left for the parent to stamp.
        """
        return cls(
            position=-1,
            seed=seed,
            metrics=metrics,
            fingerprint=fingerprint_of(metrics),
            duration=time.perf_counter() - started,
            worker_pid=os.getpid(),
            telemetry=telemetry,
            columns=columns,
        )
