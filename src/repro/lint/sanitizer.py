"""Runtime determinism sanitizer: replay a simulation and diff the records.

The static rules in :mod:`repro.lint.rules` catch the *sources* of
nondeterminism they know about; this module catches the symptom directly.
A :class:`DeterminismSanitizer` executes the same experiment several
times from the same seed, captures each run as canonical text lines plus
its final metrics, and reports the **first diverging line** -- the exact
simulated time and payload where replay broke, which is usually within a
few records of the offending draw.  A DCA run is captured through an
uncapped :class:`~repro.obs.TelemetryRecorder` (its spans, its events,
and its metric snapshot among the final metrics); grid and MapReduce
runs through their reports' per-task records.

Example:
    >>> from repro.core import IterativeRedundancy
    >>> from repro.dca import DcaConfig
    >>> from repro.lint.sanitizer import sanitize_dca
    >>> report = sanitize_dca(DcaConfig(
    ...     strategy=IterativeRedundancy(2), tasks=20, nodes=10, seed=3))
    >>> report.ok
    True
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.dca.config import DcaConfig
from repro.dca.report import DcaReport
from repro.dca.simulation import DcaSimulation
from repro.grid.run import GridConfig, run_grid
from repro.mapreduce.engine import MapReduceJob, run_mapreduce
from repro.obs.recorder import TelemetryRecorder

#: One run's observable outcome: canonical record lines and the final metrics.
RunCapture = Tuple[Sequence[str], Mapping[str, Any]]
Runner = Callable[[], RunCapture]


class DeterminismError(AssertionError):
    """Raised by :meth:`SanitizerReport.raise_if_diverged` on divergence."""


def _attrs(attrs: Mapping[str, Any]) -> str:
    return ",".join(f"{key}={attrs[key]!r}" for key in sorted(attrs))


def canonical_span(span: Mapping[str, Any]) -> str:
    """A stable, byte-comparable rendering of one recorded span dict."""
    return (
        f"t={span['start']!r}..{span['end']!r} {span['name']} "
        f"key={span['key']!r} [{_attrs(span['attrs'])}]"
    )


def canonical_event(event: Mapping[str, Any]) -> str:
    """A stable, byte-comparable rendering of one recorded event dict."""
    return f"t={event['time']!r} {event['name']} [{_attrs(event['attrs'])}]"


def payload_lines(payload: Mapping[str, Any]) -> List[str]:
    """Canonical lines of a recorder payload: spans in close order, then events."""
    return [canonical_span(span) for span in payload["spans"]] + [
        canonical_event(event) for event in payload["events"]
    ]


def trace_fingerprint(lines: Sequence[str]) -> str:
    """Canonical text for a whole capture (byte-identical iff captures are)."""
    return "\n".join(lines)


@dataclass(frozen=True)
class Divergence:
    """Where two supposedly identical runs first disagreed.

    Attributes:
        kind: ``"event"`` (line mismatch at ``index``), ``"length"``
            (one capture is a strict prefix of the other), or ``"metric"``
            (identical lines but different final metrics).
        index: Index of the first diverging line (-1 for metric kind).
        expected: Canonical rendering from the reference run.
        observed: Canonical rendering from the diverging run.
    """

    kind: str
    index: int
    expected: str
    observed: str

    def describe(self) -> str:
        if self.kind == "metric":
            return f"final metrics diverged: expected {self.expected}, observed {self.observed}"
        if self.kind == "length":
            return (
                f"captures diverged at line #{self.index}: "
                f"one run ended, the other recorded {self.observed}"
            )
        return (
            f"first divergence at line #{self.index}: "
            f"expected {self.expected}, observed {self.observed}"
        )


@dataclass
class SanitizerReport:
    """Outcome of a determinism check."""

    ok: bool
    runs: int
    events_compared: int
    divergence: Optional[Divergence] = None

    def message(self) -> str:
        if self.ok:
            return (
                f"deterministic: {self.runs} runs produced identical "
                f"{self.events_compared}-line captures and metrics"
            )
        assert self.divergence is not None
        return f"NONDETERMINISM after {self.runs} runs: {self.divergence.describe()}"

    def raise_if_diverged(self) -> None:
        if not self.ok:
            raise DeterminismError(self.message())


def diff_captures(reference: RunCapture, observed: RunCapture) -> Optional[Divergence]:
    """First divergence between two run captures, or ``None`` if identical."""
    ref_lines, ref_metrics = reference
    obs_lines, obs_metrics = observed
    for index, (expected, got) in enumerate(zip(ref_lines, obs_lines)):
        if expected != got:
            return Divergence(kind="event", index=index, expected=expected, observed=got)
    if len(ref_lines) != len(obs_lines):
        index = min(len(ref_lines), len(obs_lines))
        longer = ref_lines if len(ref_lines) > len(obs_lines) else obs_lines
        return Divergence(
            kind="length",
            index=index,
            expected=f"{len(ref_lines)} lines",
            observed=longer[index],
        )
    if dict(ref_metrics) != dict(obs_metrics):
        changed = sorted(
            key
            for key in set(ref_metrics) | set(obs_metrics)
            if ref_metrics.get(key) != obs_metrics.get(key)
        )
        return Divergence(
            kind="metric",
            index=-1,
            expected=repr({key: ref_metrics.get(key) for key in changed}),
            observed=repr({key: obs_metrics.get(key) for key in changed}),
        )
    return None


class DeterminismSanitizer:
    """Replays a runner and diffs every run against the first.

    Args:
        runner: Zero-argument callable executing one *fresh* run and
            returning ``(canonical lines, final metrics)``.  The runner must
            rebuild all state per call -- the sanitizer cannot detect
            state smuggled between runs through shared objects.
        runs: Total executions (>= 2).
    """

    def __init__(self, runner: Runner, *, runs: int = 2) -> None:
        if runs < 2:
            raise ValueError(f"need at least 2 runs to compare, got {runs}")
        self.runner = runner
        self.runs = runs

    def check(self) -> SanitizerReport:
        reference = self.runner()
        for _ in range(self.runs - 1):
            observed = self.runner()
            divergence = diff_captures(reference, observed)
            if divergence is not None:
                return SanitizerReport(
                    ok=False,
                    runs=self.runs,
                    events_compared=divergence.index if divergence.index >= 0 else len(reference[0]),
                    divergence=divergence,
                )
        return SanitizerReport(ok=True, runs=self.runs, events_compared=len(reference[0]))


def dca_runner(config: DcaConfig) -> Runner:
    """A :class:`DeterminismSanitizer` runner for one DCA configuration.

    The config (including its strategy, which may carry reputation state)
    is deep-copied per run so every execution starts from scratch.  The
    final metrics are the report's plus the recorder's metric snapshot.
    """

    def run() -> RunCapture:
        recorder = TelemetryRecorder()
        report = DcaSimulation(copy.deepcopy(config), recorder=recorder).run()
        payload = recorder.as_payload()
        metrics = dict(report.as_dict())
        metrics["telemetry"] = payload["metrics"]
        metrics["open_spans"] = payload["open_spans"]
        return payload_lines(payload), metrics

    return run


def sanitize_dca(config: DcaConfig, *, runs: int = 2) -> SanitizerReport:
    """Run a DCA simulation ``runs`` times and diff records and metrics."""
    return DeterminismSanitizer(dca_runner(config), runs=runs).check()


def _record_lines(report: DcaReport) -> List[str]:
    """Canonical lines of a report's per-task records.

    The grid and MapReduce substrates drive their simulations internally,
    so there is no recorder to read; the per-task records carry enough of
    the outcome (value, cost, timing) that byte-comparing them catches
    any replay divergence in decision, ordering, scheduling, or timing.
    """
    return [f"task={record.task_id} [{_attrs(asdict(record))}]" for record in report.records]


def grid_runner(config: GridConfig) -> Runner:
    """A sanitizer runner for one grid configuration.

    The config (strategy included) is deep-copied per run so stateful
    strategies cannot smuggle reputation between replays.
    """

    def run() -> RunCapture:
        report = run_grid(copy.deepcopy(config))
        return _record_lines(report), report.as_dict()

    return run


def sanitize_grid(config: GridConfig, *, runs: int = 2) -> SanitizerReport:
    """Run a grid computation ``runs`` times and diff records and metrics."""
    return DeterminismSanitizer(grid_runner(config), runs=runs).check()


def mapreduce_runner(
    job: MapReduceJob,
    strategy,
    *,
    nodes: int = 200,
    reliability=0.7,
    seed: int = 0,
    **config_overrides,
) -> Runner:
    """A sanitizer runner for one MapReduce job (args as
    :func:`repro.mapreduce.engine.run_mapreduce`).

    Job and strategy are deep-copied per run: the engine reuses the
    strategy object across chunks, so shared state would otherwise leak
    between replays and mask (or fake) nondeterminism.
    """

    def run() -> RunCapture:
        report = run_mapreduce(
            copy.deepcopy(job),
            copy.deepcopy(strategy),
            nodes=nodes,
            reliability=reliability,
            seed=seed,
            **copy.deepcopy(config_overrides),
        )
        metrics = dict(report.map_report.as_dict())
        metrics["correct"] = report.correct
        metrics["corrupted_chunks"] = report.corrupted_chunks
        metrics["output"] = dict(report.output)
        return _record_lines(report.map_report), metrics

    return run


def sanitize_mapreduce(
    job: MapReduceJob,
    strategy,
    *,
    runs: int = 2,
    nodes: int = 200,
    reliability=0.7,
    seed: int = 0,
    **config_overrides,
) -> SanitizerReport:
    """Run a MapReduce job ``runs`` times and diff map records, output,
    and metrics."""
    runner = mapreduce_runner(
        job,
        strategy,
        nodes=nodes,
        reliability=reliability,
        seed=seed,
        **config_overrides,
    )
    return DeterminismSanitizer(runner, runs=runs).check()
