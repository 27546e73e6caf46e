"""The parent-side telemetry sink: collect merged run payloads.

``--telemetry <path>`` on the experiment/bench CLIs installs a
:class:`TelemetrySink` here; :func:`repro.parallel.engine.fan_out`
(behind ``run_dca_replicates`` and ``run_dca_shards``) consults
:func:`current_sink` and, when one is installed, enables per-replicate
telemetry on its specs and hands the position-ordered merged payload
back via :meth:`TelemetrySink.add_run`.

The sink lives in the *parent* process only -- pool workers never see
it (specs carry a plain ``telemetry`` flag instead), so installing a
sink cannot introduce cross-process shared state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.capture import Capture
from repro.obs.metrics import merge_snapshots

#: How much of each run's span/event stream a sink retains.
KEEP_CHOICES = ("first", "all", "none")

#: Default per-run cap on retained spans/events.  A smoke-scale figure
#: sweep already merges hundreds of thousands of spans; captures are for
#: inspection, not archival, so the sink keeps a deterministic prefix
#: and counts the rest as truncated.
DEFAULT_MAX_RECORDS = 20_000


class TelemetrySink:
    """Accumulates merged telemetry payloads, one per fan-out run.

    Args:
        keep_records: Which runs' span/event streams to retain --
            ``"first"`` (default: metrics from every run, the trace of
            the first, keeping captures small), ``"all"``, or ``"none"``.
        max_records: Per-run cap on retained spans and (separately)
            events; the kept prefix is position-ordered and therefore
            deterministic.  ``None`` disables the cap.  Metric snapshots
            are never truncated.
    """

    def __init__(
        self,
        *,
        keep_records: str = "first",
        max_records: Optional[int] = DEFAULT_MAX_RECORDS,
    ) -> None:
        if keep_records not in KEEP_CHOICES:
            raise ValueError(
                f"keep_records must be one of {KEEP_CHOICES}, got {keep_records!r}"
            )
        if max_records is not None and max_records < 0:
            raise ValueError(f"max_records must be non-negative, got {max_records}")
        self.keep_records = keep_records
        self.max_records = max_records
        self._runs: List[Dict[str, Any]] = []
        self._kept_any = False

    @property
    def runs(self) -> List[Dict[str, Any]]:
        """Run entries added so far (label, metrics, optional records)."""
        return list(self._runs)

    def add_run(self, label: str, payload: Optional[Dict[str, Any]]) -> None:
        """Record one fan-out's merged telemetry (``None`` is ignored)."""
        if payload is None:
            return
        entry: Dict[str, Any] = {"label": label, "metrics": payload["metrics"]}
        keep = self.keep_records == "all" or (
            self.keep_records == "first" and not self._kept_any
        )
        if keep:
            spans = list(payload.get("spans", []))
            events = list(payload.get("events", []))
            cap = self.max_records
            if cap is not None:
                entry["truncated_spans"] = max(0, len(spans) - cap)
                entry["truncated_events"] = max(0, len(events) - cap)
                spans = spans[:cap]
                events = events[:cap]
            entry["spans"] = spans
            entry["events"] = events
            self._kept_any = True
        self._runs.append(entry)

    def capture(self, meta: Optional[Dict[str, Any]] = None) -> Capture:
        """Fold every run into one :class:`~repro.obs.capture.Capture`."""
        metrics = (
            merge_snapshots([entry["metrics"] for entry in self._runs])
            if self._runs
            else {}
        )
        spans = [
            dict(span, run=index)
            for index, entry in enumerate(self._runs)
            for span in entry.get("spans", ())
        ]
        events = [
            dict(event, run=index)
            for index, entry in enumerate(self._runs)
            for event in entry.get("events", ())
        ]
        return Capture(
            meta=dict(meta) if meta else {},
            metrics=metrics,
            spans=spans,
            events=events,
            runs=[
                {"label": entry["label"], "metrics": entry["metrics"]}
                for entry in self._runs
            ],
        )


_SINK: Optional[TelemetrySink] = None


def install_sink(sink: TelemetrySink) -> TelemetrySink:
    """Make ``sink`` the process-wide sink; returns it for chaining."""
    global _SINK
    _SINK = sink
    return sink


def current_sink() -> Optional[TelemetrySink]:
    """The installed sink, or ``None`` when telemetry capture is off."""
    return _SINK


def clear_sink() -> None:
    """Uninstall the current sink (the ``finally`` half of install)."""
    global _SINK
    _SINK = None


__all__ = [
    "TelemetrySink",
    "clear_sink",
    "current_sink",
    "install_sink",
]
