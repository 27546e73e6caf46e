"""Unified telemetry: deterministic metrics, spans, and trace exporters.

``repro.obs`` is the observability substrate the rest of the repository
records into:

* :mod:`repro.obs.metrics` -- counters, gauges, and fixed-boundary
  histograms with labeled series and a mergeable canonical snapshot;
* :mod:`repro.obs.recorder` -- the :class:`Recorder` interface clocked
  on *simulated* time, with the zero-cost :class:`NullRecorder` default
  and the buffering :class:`TelemetryRecorder`;
* :mod:`repro.obs.export` -- JSONL, Chrome trace-event JSON (Perfetto),
  Prometheus text exposition, and per-task text timelines;
* :mod:`repro.obs.capture` / :mod:`repro.obs.context` -- saved run
  captures, diffing, and the parent-side ``--telemetry`` sink;
* :mod:`repro.obs.host` -- the only module allowed to read the wall
  clock (capture metadata), enforced by reprolint RL008;
* :mod:`repro.obs.cli` -- the ``repro-obs`` summary/export/diff command.

Design contract: telemetry **observes, never perturbs** -- same-seed
runs are byte-identical with recording on or off, and parallel-merged
telemetry is byte-identical to serial (``docs/observability.md``).
"""

from repro.obs.capture import Capture, diff_captures, format_diff
from repro.obs.context import TelemetrySink, clear_sink, current_sink, install_sink
from repro.obs.export import (
    task_timeline,
    to_chrome_trace,
    to_chrome_trace_json,
    to_jsonl,
    to_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_BOUNDARIES,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.recorder import (
    EventRecord,
    NullRecorder,
    Recorder,
    SpanRecord,
    TelemetryRecorder,
    active,
)

__all__ = [
    "Capture",
    "CounterFamily",
    "DEFAULT_BOUNDARIES",
    "EventRecord",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "TelemetryRecorder",
    "TelemetrySink",
    "active",
    "clear_sink",
    "current_sink",
    "diff_captures",
    "format_diff",
    "install_sink",
    "merge_snapshots",
    "task_timeline",
    "to_chrome_trace",
    "to_chrome_trace_json",
    "to_jsonl",
    "to_prometheus",
]
