"""In-memory spans for the benchmark's traced pass.

Spans are recorded from the benchmark side only: around the calls the
benchmark makes into the library's public entry points, and around entry
points the library calls internally, which :meth:`Tracer.patch` wraps for
the duration of one ``with`` block.  :meth:`Tracer.timed` swaps in a
strategy whose ``decide()`` counts its calls and seconds, the one layer
inside the DES the benchmark can reach from outside.  Nothing here runs
during the timed iterations; those take :data:`NULL`, whose spans cost one
no-op context manager per layer call.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
import os
import time
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple, Type

from repro.core.strategy import RedundancyStrategy


@dataclass(frozen=True)
class Span:
    """One closed span: wall-clock interval, its parent, its iteration."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    iteration: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The tracer the timed iterations use: records nothing."""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def patch(self, module: Any, attr: str, name: str) -> ContextManager[None]:
        return contextlib.nullcontext()

    def timed(self, strategy: RedundancyStrategy) -> RedundancyStrategy:
        return strategy


NULL = NullTracer()


def _timed_class(base: Type[RedundancyStrategy]) -> Type[RedundancyStrategy]:
    class TimedDecide(base):
        def decide(self, vote):
            start = time.perf_counter()
            try:
                return base.decide(self, vote)
            finally:
                self.decide_s += time.perf_counter() - start
                self.decide_calls += 1

    TimedDecide.__name__ = TimedDecide.__qualname__ = f"Timed{base.__name__}"
    return TimedDecide


class Tracer:
    """Records spans in memory; :meth:`chrome` renders them at exit.

    Spans nest by call order (the benchmark is single-threaded), so a
    span's parent is whichever span was open when it began.
    ``iteration`` tags every span opened while it is set, which lets one
    tracer hold the traced iteration and the in-process probes apart.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.results: Dict[str, Any] = {}
        self.iteration = "traced"
        self._open: List[int] = []
        self._next_id = 0
        self._origin = time.perf_counter()
        self._timed: List[Tuple[str, Any]] = []

    @contextlib.contextmanager
    def tagged(self, iteration: str) -> Iterator[None]:
        """Tag the spans opened inside the block with ``iteration``."""
        previous, self.iteration = self.iteration, iteration
        try:
            yield
        finally:
            self.iteration = previous

    def timed(self, strategy: RedundancyStrategy) -> RedundancyStrategy:
        """A copy of ``strategy`` whose ``decide()`` counts calls and seconds.

        The copy belongs to a subclass of the strategy's own class, so the
        substrate treats it exactly as the original and draws nothing
        differently; :meth:`decide_totals` sums the counters.
        """
        probe = copy.copy(strategy)
        probe.__class__ = _timed_class(type(strategy))
        probe.decide_calls = 0
        probe.decide_s = 0.0
        self._timed.append((self.iteration, probe))
        return probe

    def decide_totals(self, iteration: str = "traced") -> Tuple[int, float]:
        """(decide calls, decide seconds) over the strategies timed in ``iteration``."""
        probes = [probe for tag, probe in self._timed if tag == iteration]
        return (
            sum(probe.decide_calls for probe in probes),
            sum(probe.decide_s for probe in probes),
        )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, self.iteration)
            )

    @contextlib.contextmanager
    def patch(self, module: Any, attr: str, name: str) -> Iterator[None]:
        """Wrap ``module.attr`` in a span named ``name`` while the block runs.

        The wrapped call's return value is kept in ``results[name]``, so
        layer metrics can read what the call returned (envelopes, for
        instance) without the workload passing it up.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            self.results[name] = result
            return result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def total(self, name: str, iteration: str = "traced") -> float:
        """Summed duration of every span called ``name`` in ``iteration``."""
        return sum(
            span.duration
            for span in self.spans
            if span.name == name and span.iteration == iteration
        )

    def self_times(self) -> Dict[int, float]:
        """Span id -> its duration minus the time its children cover.

        Children of one span never overlap (single thread), so the part
        they cover is the sum of their durations.
        """
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {span.id: span.duration - covered.get(span.id, 0.0) for span in self.spans}

    def self_time_by_name(self, iteration: str = "traced") -> Dict[str, float]:
        own = self.self_times()
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.iteration == iteration:
                totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
        return totals

    def chrome(self, workload: str) -> dict:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        own = self.self_times()
        pid = os.getpid()
        events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"e2e {workload}"},
            }
        ]
        for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": (span.start - self._origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": {
                        "id": span.id,
                        "parent": span.parent,
                        "iteration": span.iteration,
                        "self_us": own[span.id] * 1e6,
                    },
                }
            )
        iterations = sorted({span.iteration for span in self.spans})
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "self_s": {it: self.self_time_by_name(it) for it in iterations},
            },
        }

    def write_chrome(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome(workload), handle, indent=1, sort_keys=True)
