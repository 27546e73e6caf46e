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
* Spans are keyed ``(name, key)``; begin/end pairs match on that key, so
  overlapping spans of the same name are fine as long as keys are unique
  among *open* spans (e.g. a node id: a node runs one job at a time).
* A hot path may fold per-item histogram values into run totals and
  record them once through :meth:`Recorder.observe_many`, which equals
  the same values passed to :meth:`Recorder.observe` one by one.
"""

from __future__ import annotations

import numbers
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, DefaultDict, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
        keeps_spans: False once span attributes would be discarded
            unread.  A hot path may then pass ``attrs=None`` to
            :meth:`span_begin`/:meth:`span_end` instead of building a
            dict; it must still make both calls, since the recorder
            tracks open spans by key.
    """

    enabled = False
    keeps_spans = True

    def event(self, name: str, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        """Record an instant event at simulated ``time``."""

    def span_begin(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        """Open the span ``(name, key)`` at simulated ``time``."""

    def span_end(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        """Close the span ``(name, key)``; ``attrs`` merge over begin's."""

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
    #: True when the end arrived without a matching begin (zero-length).
    unmatched: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "key": self.key,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "unmatched": self.unmatched,
        }


@dataclass
class EventRecord:
    """One instant event."""

    name: str
    time: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "time": self.time, "attrs": dict(self.attrs)}


class TelemetryRecorder(Recorder):
    """The buffering recorder: spans and events in memory, metrics in a
    :class:`~repro.obs.metrics.MetricsRegistry`.

    Args:
        max_spans / max_events: Optional record caps.  Past a cap, new
            records are *dropped and counted* (``dropped_spans`` /
            ``dropped_events``) rather than evicting old ones, so the
            retained prefix is deterministic; metric counts stay complete
            regardless.  Records only grow, so once the span cap is
            reached every span still open is bound to be dropped: from
            then on a begin keeps just the key (``open_spans`` stays
            exact) and an end counts the drop without touching attrs.
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
        self._spans: List[SpanRecord] = []
        self._events: List[EventRecord] = []
        #: Open spans, one table per span name: key -> (start, begin
        #: attrs), or ``None`` if begun past the cap.
        self._open: DefaultDict[str, Dict[Any, Optional[Tuple[float, Dict[str, Any]]]]] = (
            defaultdict(dict)
        )
        self._max_spans = max_spans
        self._max_events = max_events
        #: Records only grow, so this turns False for good at the cap.
        self.keeps_spans = max_spans is None or max_spans > 0
        self.dropped_spans = 0
        self.dropped_events = 0

    # -- recording ------------------------------------------------------

    def event(self, name: str, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        if self._max_events is not None and len(self._events) >= self._max_events:
            self.dropped_events += 1
            return
        self._events.append(EventRecord(name, time, dict(attrs) if attrs else {}))

    def span_begin(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        if self.keeps_spans:
            self._open[name][key] = (time, dict(attrs) if attrs else {})
        else:
            self._open[name][key] = None

    def span_end(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        opened = self._open[name].pop(key, None)
        if not self.keeps_spans:
            self.dropped_spans += 1
            return
        # Below the cap no open span is drop-bound, so None means unmatched.
        if opened is None:
            start, merged = time, {}
        else:
            start, merged = opened
        if attrs:
            merged.update(attrs)
        spans = self._spans
        spans.append(SpanRecord(name, key, start, time, merged, opened is None))
        if len(spans) == self._max_spans:
            self.keeps_spans = False

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
        return list(self._spans)

    @property
    def events(self) -> List[EventRecord]:
        """Instant events, in record order."""
        return list(self._events)

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended."""
        return sum(map(len, self._open.values()))

    def as_payload(self) -> dict:
        """The picklable/JSON-ready form shipped in replicate envelopes."""
        return {
            "metrics": self._registry.snapshot(),
            "spans": [span.as_dict() for span in self._spans],
            "events": [event.as_dict() for event in self._events],
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
