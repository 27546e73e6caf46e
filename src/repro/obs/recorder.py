"""Recorders: where instrumented code sends spans, events, and metrics.

The contract with the hot paths (see ``docs/observability.md``):

* Instrumented components normalize at construction time -- they keep
  ``None`` instead of a disabled recorder and guard every site with
  ``if recorder is not None``, so telemetry-off runs pay a single
  predictable branch per site.  :class:`NullRecorder` therefore costs
  nothing beyond that branch; the ``obs_overhead`` bench suite gates it
  at <=2% against the uninstrumented path.
* All timestamps passed in are **simulated** time.  Recorders never read
  the wall clock (reprolint RL008 enforces this for the whole package;
  only ``repro/obs/host*.py`` may, for capture metadata).
* A span is recorded once, when it ends, by :meth:`Recorder.span`;
  the caller keeps its start.  A recorder never sees an open span: the
  caller counts those and declares the count through
  :meth:`Recorder.declare_open_spans` whenever its run loop exits.
* The attrs dict given to :meth:`Recorder.span` or
  :meth:`Recorder.event` is built for that call and kept without a
  copy.  Past a cap (``keeps_spans`` / ``keeps_events`` false) the
  caller passes ``None`` instead of building one.
* A hot path may fold per-item histogram values into run totals and
  record them once through :meth:`Recorder.observe_many`, which equals
  the same values passed to :meth:`Recorder.observe` one by one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.metrics import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
)

Number = Union[int, float]


class Recorder:
    """The recorder interface; base methods are explicit no-ops.

    Attributes:
        enabled: False for no-op recorders.  Instrumented components
            check it once at attach time and drop disabled recorders, so
            per-event calls never happen when telemetry is off.
        keeps_spans / keeps_events: False once span / event
            attributes would be discarded unread.  A hot path may then
            pass ``attrs=None`` instead of building a dict; it still
            makes the call, which counts the drop.
    """

    enabled = False
    keeps_spans = True
    keeps_events = True

    def event(self, name: str, time: float, attrs: Optional[dict] = None) -> None:
        """Record an instant event at simulated ``time``."""

    def span(self, name: str, key: Any, start: float, end: float, attrs: Optional[dict] = None) -> None:
        """Record the closed span ``(name, key)`` over ``[start, end]``.

        ``attrs`` is built for this call alone and kept without a copy:
        the caller must not touch it afterwards.
        """

    def declare_open_spans(self, count: int) -> None:
        """Declare ``count`` spans begun and not yet ended (the latest wins)."""

    def count(self, name: str, value: Number = 1, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Increment the counter ``name``."""

    def gauge(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Set the gauge ``name``."""

    def observe(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Record ``value`` into the histogram ``name``."""

    def observe_many(
        self, name: str, values: Sequence[Number], labels: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Record each of ``values``, in order, as :meth:`observe` would.

        An empty ``values`` records nothing, not even the histogram.
        """


class NullRecorder(Recorder):
    """The zero-cost default: disabled, every method inherited as a no-op."""


@dataclass
class SpanRecord:
    """One closed span: a named simulated-time interval with attributes."""

    name: str
    key: Any
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return _span_dict(self.name, self.key, self.start, self.end, self.attrs)


@dataclass
class EventRecord:
    """One instant event."""

    name: str
    time: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "time": self.time, "attrs": dict(self.attrs)}


def _span_dict(name: str, key: Any, start: float, end: float, attrs: Optional[dict]) -> dict:
    # Every span is recorded closed; the payload keeps "unmatched", which its digests cover.
    attrs = dict(attrs) if attrs else {}
    return {"name": name, "key": key, "start": start, "end": end, "attrs": attrs, "unmatched": False}


class TelemetryRecorder(Recorder):
    """The buffering recorder: spans and events in memory, metrics in a
    :class:`~repro.obs.metrics.MetricsRegistry`.

    Args:
        max_spans / max_events: Optional record caps.  Past a cap, new
            records are *dropped and counted* (``dropped_spans`` /
            ``dropped_events``) rather than evicting old ones, so the
            retained prefix is deterministic; metric counts stay complete
            regardless.  Records only grow, so ``keeps_spans`` /
            ``keeps_events`` turn False for good at the cap.

    Kept spans and events are stored as plain tuples, ``(name, key,
    start, end, attrs)`` and ``(name, time, attrs)``, holding the
    caller's attrs dict as it is; :attr:`spans` and :attr:`events` build
    the record objects on read, and :meth:`as_payload` the dicts.
    """

    enabled = True

    def __init__(
        self,
        *,
        max_spans: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> None:
        check_limit("max_spans", max_spans)
        check_limit("max_events", max_events)
        self._registry = MetricsRegistry()
        # Families resolved once per name (a family's kind never changes).
        self._counters: Dict[str, CounterFamily] = {}
        self._gauges: Dict[str, GaugeFamily] = {}
        self._histograms: Dict[str, HistogramFamily] = {}
        self._spans: List[Tuple[str, Any, float, float, Optional[dict]]] = []
        self._events: List[Tuple[str, float, Optional[dict]]] = []
        self._max_spans = max_spans
        self._max_events = max_events
        #: Records only grow, so these turn False for good at the cap.
        self.keeps_spans = max_spans is None or max_spans > 0
        self.keeps_events = max_events is None or max_events > 0
        #: Spans begun and not yet ended, as last declared (a span
        #: reaches the recorder only when it ends).
        self.open_spans = 0
        self.dropped_spans = 0
        self.dropped_events = 0

    # -- recording ------------------------------------------------------

    def event(self, name: str, time: float, attrs: Optional[dict] = None) -> None:
        if not self.keeps_events:
            self.dropped_events += 1
            return
        events = self._events
        events.append((name, time, attrs))
        if len(events) == self._max_events:
            self.keeps_events = False

    def span(self, name: str, key: Any, start: float, end: float, attrs: Optional[dict] = None) -> None:
        if not self.keeps_spans:
            self.dropped_spans += 1
            return
        spans = self._spans
        spans.append((name, key, start, end, attrs))
        if len(spans) == self._max_spans:
            self.keeps_spans = False

    def declare_open_spans(self, count: int) -> None:
        self.open_spans = count

    def count(self, name: str, value: Number = 1, labels: Optional[Mapping[str, Any]] = None) -> None:
        family = self._counters.get(name)
        if family is None:
            family = self._counters[name] = self._registry.counter(name)
        family.inc(value, labels)

    def gauge(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        family = self._gauges.get(name)
        if family is None:
            family = self._gauges[name] = self._registry.gauge(name)
        family.set(value, labels)

    def observe(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        family = self._histograms.get(name)
        if family is None:
            family = self._histograms[name] = self._registry.histogram(name)
        family.observe(value, labels)

    def observe_many(
        self, name: str, values: Sequence[Number], labels: Optional[Mapping[str, Any]] = None
    ) -> None:
        if not values:
            return
        family = self._histograms.get(name)
        if family is None:
            family = self._histograms[name] = self._registry.histogram(name)
        family.observe_many(values, labels)

    # -- reading back ---------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The backing metrics registry (for tests and direct queries)."""
        return self._registry

    @property
    def spans(self) -> List[SpanRecord]:
        """Closed spans, in close order."""
        return [
            SpanRecord(name, key, start, end, attrs or {})
            for name, key, start, end, attrs in self._spans
        ]

    @property
    def events(self) -> List[EventRecord]:
        """Instant events, in record order."""
        return [EventRecord(name, time, attrs or {}) for name, time, attrs in self._events]

    def as_payload(self) -> dict:
        """The picklable/JSON-ready form shipped in replicate envelopes."""
        return {
            "metrics": self._registry.snapshot(),
            "spans": [_span_dict(*span) for span in self._spans],
            "events": [
                {"name": name, "time": time, "attrs": dict(attrs) if attrs else {}}
                for name, time, attrs in self._events
            ],
            "open_spans": self.open_spans,
            "dropped_spans": self.dropped_spans,
            "dropped_events": self.dropped_events,
        }


def check_limit(name: str, value: Optional[int]) -> None:
    """Reject a cap that is neither ``None`` nor a non-negative integer.

    A float cap is silently wrong rather than approximate: a count never
    equals 2.5, so that cap is never reached, and every comparison with
    NaN is false.  ``True`` would act as 1.  So bools, non-integers and
    negative values all raise.

    Raises:
        ValueError: for any other ``value``.
    """
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0
    ):
        raise ValueError(f"{name} must be a non-negative integer or None, got {value!r}")


def active(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Normalize: a disabled (or missing) recorder becomes ``None``.

    Instrumented constructors call this once, so their hot-path guards
    are a plain ``is not None`` check.
    """
    if recorder is None or not recorder.enabled:
        return None
    return recorder


__all__ = [
    "EventRecord",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "TelemetryRecorder",
    "active",
    "check_limit",
]
