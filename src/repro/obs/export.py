"""Exporters: JSONL, Chrome trace-event JSON, Prometheus text exposition.

All three render a :class:`~repro.obs.capture.Capture` deterministically
(stable ordering, canonical JSON), so exports of byte-identical captures
are byte-identical too.

* **JSONL** -- one self-describing JSON object per line (``meta``,
  ``metric``, ``span``, ``event``) for log shippers and ad-hoc ``jq``.
* **Chrome trace events** -- the ``{"traceEvents": [...]}`` JSON object
  format; load it in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Spans become complete (``"ph": "X"``) events,
  instants become ``"ph": "i"``; one simulated time unit is rendered as
  one second (timestamps are microseconds), runs map to ``pid`` and
  replicates to ``tid``.
* **Prometheus text exposition** -- counters/gauges/histograms with
  ``# HELP``/``# TYPE`` headers, cumulative ``_bucket{le=...}`` series,
  and metric names sanitized to the Prometheus grammar.

:func:`task_timeline` renders one DES task's spans and events as text,
from a capture or straight from :meth:`TelemetryRecorder.as_payload`.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.capture import Capture

#: Microseconds per simulated time unit in Chrome traces (1 unit = 1s).
_CHROME_US_PER_UNIT = 1_000_000.0

_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")


def to_jsonl(capture: Capture) -> str:
    """Render the capture as one JSON object per line."""
    lines: List[str] = []

    def emit(record: Dict[str, Any]) -> None:
        lines.append(json.dumps(record, sort_keys=True, default=repr))

    emit({"type": "meta", **capture.meta})
    for name in sorted(capture.metrics):
        family = capture.metrics[name]
        for entry in family.get("series", []):
            record = {"type": "metric", "name": name, "kind": family["kind"], **entry}
            if family["kind"] == "histogram":
                record["boundaries"] = family["boundaries"]
            emit(record)
    for span in capture.spans:
        emit({"type": "span", **span})
    for event in capture.events:
        emit({"type": "event", **event})
    return "\n".join(lines) + "\n"


def _chrome_args(attrs: Mapping[str, Any]) -> Dict[str, Any]:
    return {str(key): value for key, value in attrs.items()}


def to_chrome_trace(capture: Capture) -> dict:
    """The capture as a Chrome trace-event JSON *object* (not yet a string).

    Shape contract (pinned by tests): the result has a ``traceEvents``
    list whose entries all carry ``name``/``ph``/``ts``/``pid``/``tid``,
    with ``dur`` on every complete (``"X"``) event.
    """
    trace_events: List[dict] = []
    run_labels = {
        index: entry.get("label", f"run {index}")
        for index, entry in enumerate(capture.runs)
    }
    named: set = set()
    for span in capture.spans:
        pid = int(span.get("run", 0))
        tid = int(span.get("replicate", 0))
        if pid not in named:
            named.add(pid)
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": run_labels.get(pid, f"run {pid}")},
                }
            )
        start = float(span["start"])
        end = float(span["end"]) if span.get("end") is not None else start
        trace_events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": start * _CHROME_US_PER_UNIT,
                "dur": (end - start) * _CHROME_US_PER_UNIT,
                "pid": pid,
                "tid": tid,
                "args": _chrome_args(span.get("attrs", {})),
            }
        )
    for event in capture.events:
        trace_events.append(
            {
                "name": event["name"],
                "cat": "repro",
                "ph": "i",
                "s": "t",
                "ts": float(event["time"]) * _CHROME_US_PER_UNIT,
                "pid": int(event.get("run", 0)),
                "tid": int(event.get("replicate", 0)),
                "args": _chrome_args(event.get("attrs", {})),
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"label": capture.meta.get("label", "")},
    }


def to_chrome_trace_json(capture: Capture) -> str:
    """:func:`to_chrome_trace`, serialized."""
    return json.dumps(to_chrome_trace(capture), sort_keys=True, default=repr) + "\n"


def _prom_name(name: str) -> str:
    sanitized = _PROM_NAME_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_labels(labels: Mapping[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    pairs = [
        (_PROM_LABEL_BAD.sub("_", key), value) for key, value in sorted(labels.items())
    ]
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(key, str(value).replace("\\", "\\\\").replace('"', '\\"'))
        for key, value in pairs
    )
    return "{" + rendered + "}"


def _prom_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_prometheus(capture: Capture) -> str:
    """The capture's merged metrics in Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(capture.metrics):
        family = capture.metrics[name]
        kind = family["kind"]
        prom = _prom_name(name)
        if family.get("help"):
            lines.append(f"# HELP {prom} {family['help']}")
        lines.append(f"# TYPE {prom} {kind}")
        for entry in family.get("series", []):
            labels = entry["labels"]
            if kind in ("counter", "gauge"):
                lines.append(f"{prom}{_prom_labels(labels)} {_prom_value(entry['value'])}")
                continue
            cumulative = 0
            for boundary, count in zip(family["boundaries"], entry["counts"]):
                cumulative += count
                lines.append(
                    f"{prom}_bucket{_prom_labels(labels, {'le': _prom_value(boundary)})} "
                    f"{cumulative}"
                )
            lines.append(
                f"{prom}_bucket{_prom_labels(labels, {'le': '+Inf'})} {entry['count']}"
            )
            lines.append(f"{prom}_sum{_prom_labels(labels)} {_prom_value(entry['sum'])}")
            lines.append(f"{prom}_count{_prom_labels(labels)} {entry['count']}")
    return "\n".join(lines) + "\n"


def task_timeline(
    spans: Sequence[Mapping[str, Any]],
    events: Sequence[Mapping[str, Any]],
    task_id: int,
) -> str:
    """One task's spans and events as text, in time order.

    ``spans`` and ``events`` are record dicts as held by
    :meth:`~repro.obs.recorder.TelemetryRecorder.as_payload` and by a
    :class:`Capture`; a record belongs to the task when its ``task``
    attribute is ``task_id``.  Each span is one line at its start that
    also gives its end.  At equal times events come first (a decide
    precedes the jobs it dispatches), then spans longest first, and of
    spans with equal start and end the one closed last: an enclosing
    span closes after what it encloses, so the ``dca.task`` span heads
    its own timeline.
    """
    rows = []
    for event in events:
        attrs = event.get("attrs", {})
        if attrs.get("task") == task_id:
            rows.append((event["time"], (0, 0.0), event["name"], attrs))
    for span in reversed(spans):
        attrs = span.get("attrs", {})
        if attrs.get("task") == task_id:
            label = f"{span['name']} until t={span['end']:.4f}"
            rows.append((span["start"], (1, -span["end"]), label, attrs))
    rows.sort(key=lambda row: row[:2])
    lines = [f"task {task_id}"]
    for time, _, label, attrs in rows:
        detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs) if key != "task")
        lines.append(f"  t={time:10.4f}  {label} {detail}".rstrip())
    return "\n".join(lines)


#: Exporter registry for the CLI: format name -> renderer.
EXPORTERS = {
    "jsonl": to_jsonl,
    "chrome": to_chrome_trace_json,
    "prometheus": to_prometheus,
}


__all__ = [
    "EXPORTERS",
    "task_timeline",
    "to_chrome_trace",
    "to_chrome_trace_json",
    "to_jsonl",
    "to_prometheus",
]
