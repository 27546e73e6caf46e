"""The process-pool replication engine.

Fans a picklable worker out over independent items and returns the
results **in submission order**, so callers see exactly what a serial
loop would have produced.  Scheduling is straggler-aware:

* by default every item is its own pool task, and all of them are
  submitted to the shared pool queue up front.  An idle worker pulls the
  next item the moment it finishes, so uneven item costs rebalance
  themselves and no worker idles while another still holds a queued
  item.  ``chunk_size=`` groups items per task instead, for callers
  whose items are too cheap to pay one pipe round trip each;
* ``jobs=1`` bypasses the pool entirely and runs the exact legacy
  serial path in-process (no executor, no pickling);
* a worker crash is captured in the child and re-raised in the parent
  as :class:`ReplicateError` naming the first crashed item by position,
  deterministically (the lowest position wins, regardless of which
  task happened to finish first).

Workers must be module-level functions and items picklable; both are
shipped through the pool's pipe even under the fork start method.

:func:`fan_out` is the one path every substrate takes on top of
:func:`parallel_map`: its workers return
:class:`~repro.parallel.envelope.ReplicateEnvelope` values, and it
stamps their positions, names a crashed item by position, seed and
strategy, releases the shared-memory columns of the items that did
finish, and hands merged telemetry to an installed
:class:`~repro.obs.TelemetrySink`.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.context import current_sink
from repro.obs.recorder import TelemetryRecorder
from repro.parallel.envelope import ReplicateEnvelope
from repro.parallel.reducer import merge_telemetry
from repro.parallel.shm import release_columns


@dataclass(frozen=True)
class WorkerCrash:
    """Picklable record of an exception raised inside a worker."""

    position: int
    error_type: str
    message: str
    traceback_text: str


class ReplicateError(RuntimeError):
    """A replicate failed (in a worker process or the serial path).

    Attributes:
        position: Index of the failed item in the submitted sequence.
        error_type: Exception class name raised by the worker.
        traceback_text: Formatted worker-side traceback.
        completed: Results of the items that did finish, in position
            order, so the caller can release what they hold.
    """

    def __init__(
        self,
        message: str,
        *,
        position: int = -1,
        error_type: str = "",
        traceback_text: str = "",
        completed: Sequence[Any] = (),
    ) -> None:
        super().__init__(message)
        self.position = position
        self.error_type = error_type
        self.traceback_text = traceback_text
        self.completed = list(completed)

    @classmethod
    def from_crash(
        cls, crash: WorkerCrash, completed: Sequence[Any] = ()
    ) -> "ReplicateError":
        return cls(
            f"replicate #{crash.position} crashed in worker: "
            f"{crash.error_type}: {crash.message}",
            position=crash.position,
            error_type=crash.error_type,
            traceback_text=crash.traceback_text,
            completed=completed,
        )


#: Per-worker record caps: telemetry payloads travel back through the
#: process pool, so buffers are bounded.  Drops are deterministic (a pure
#: function of the item's event stream), which preserves the
#: jobs=N == jobs=1 byte-identity of merged telemetry.
_WORKER_SPAN_CAP = 10_000
_WORKER_EVENT_CAP = 10_000


def worker_recorder(telemetry: bool) -> Optional[TelemetryRecorder]:
    """The capped recorder a worker runs under when its spec asks for one."""
    if not telemetry:
        return None
    return TelemetryRecorder(max_spans=_WORKER_SPAN_CAP, max_events=_WORKER_EVENT_CAP)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None`` means all cores."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def _run_chunk(
    worker: Callable[[Any], Any],
    positioned: Sequence[Tuple[int, Any]],
) -> List[Tuple[int, bool, Any]]:
    """Run one chunk in a worker process, capturing crashes per item."""
    out: List[Tuple[int, bool, Any]] = []
    for position, item in positioned:
        try:
            out.append((position, True, worker(item)))
        except Exception as exc:
            out.append(
                (
                    position,
                    False,
                    WorkerCrash(
                        position=position,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback_text=traceback.format_exc(),
                    ),
                )
            )
    return out


def parallel_map(
    worker: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Map ``worker`` over ``items``, returning results in item order.

    Args:
        worker: Module-level callable run once per item (in a pool
            worker when ``jobs > 1``).
        items: The work items; materialised once, order defines result
            order.
        jobs: Worker processes.  ``None`` uses all cores; ``1`` runs the
            exact serial in-process path.
        chunk_size: Items per pool task; defaults to one, so idle
            workers pull the next item as soon as they finish.

    Raises:
        ReplicateError: if any item's worker raised; the error names the
            lowest failed position regardless of completion order.
    """
    work = list(items)
    if not work:
        return []
    effective_jobs = min(resolve_jobs(jobs), len(work))
    if effective_jobs <= 1:
        return _serial_map(worker, work)
    if chunk_size is None:
        chunk_size = 1
    elif chunk_size < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    positioned = list(enumerate(work))
    chunks = [
        positioned[start : start + chunk_size]
        for start in range(0, len(positioned), chunk_size)
    ]
    results: Dict[int, Any] = {}
    crashes: List[WorkerCrash] = []
    try:
        with ProcessPoolExecutor(max_workers=effective_jobs) as pool:
            futures = [pool.submit(_run_chunk, worker, chunk) for chunk in chunks]
            for future in as_completed(futures):
                for position, ok, payload in future.result():
                    if ok:
                        results[position] = payload
                    else:
                        crashes.append(payload)
    except BrokenProcessPool as exc:
        raise ReplicateError(
            "worker pool died before returning results (a worker was "
            "killed or could not start); rerun with jobs=1 to debug "
            f"in-process: {exc}",
            completed=[results[position] for position in sorted(results)],
        ) from exc
    if crashes:
        first = min(crashes, key=lambda crash: crash.position)
        raise ReplicateError.from_crash(
            first, [results[position] for position in sorted(results)]
        )
    return [results[position] for position in range(len(work))]


def _serial_map(worker: Callable[[Any], Any], work: Sequence[Any]) -> List[Any]:
    """The legacy in-process path, with the same crash surface."""
    out: List[Any] = []
    for position, item in enumerate(work):
        try:
            out.append(worker(item))
        except Exception as exc:
            raise ReplicateError(
                f"replicate #{position} crashed: {type(exc).__name__}: {exc}",
                position=position,
                error_type=type(exc).__name__,
                traceback_text=traceback.format_exc(),
                completed=out,
            ) from exc
    return out


def fan_out(
    worker: Callable[[Any], ReplicateEnvelope],
    specs: Iterable[Any],
    *,
    item: str,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    sink_tag: Optional[str] = None,
) -> List[ReplicateEnvelope]:
    """Run one envelope-returning worker per spec, in spec order.

    Every spec carries ``seed`` and ``strategy``; the worker returns an
    envelope whose position this function stamps.  With ``sink_tag``
    set (``""`` for plain replicates), the specs also carry a
    ``telemetry`` flag: an installed
    :class:`~repro.obs.TelemetrySink` turns it on, parent-side only, and
    receives the position-merged payload under the label
    ``"<strategy> [<tag> ]x<count>"``.  Seeds, metrics and fingerprints
    never change with it.

    Raises:
        ReplicateError: naming the failed ``item`` by position, seed and
            strategy.  The shared-memory columns of the items that
            finished are released first, so a crash leaks no segment.
    """
    specs = list(specs)
    sink = current_sink() if sink_tag is not None else None
    if sink is not None and specs and not any(spec.telemetry for spec in specs):
        specs = [replace(spec, telemetry=True) for spec in specs]
    try:
        envelopes = parallel_map(worker, specs, jobs=jobs, chunk_size=chunk_size)
    except ReplicateError as exc:
        for envelope in exc.completed:
            release_columns(envelope.columns)
        if not 0 <= exc.position < len(specs):
            raise
        failed = specs[exc.position]
        raise ReplicateError(
            f"{item} #{exc.position} (seed {failed.seed}, "
            f"strategy {failed.strategy.describe()}) failed: "
            f"{exc.error_type}: {exc}",
            position=exc.position,
            error_type=exc.error_type,
            traceback_text=exc.traceback_text,
        ) from exc
    envelopes = [
        replace(envelope, position=position)
        for position, envelope in enumerate(envelopes)
    ]
    if sink is not None and envelopes:
        words = [specs[0].strategy.describe(), sink_tag, f"x{len(specs)}"]
        sink.add_run(" ".join(word for word in words if word), merge_telemetry(envelopes))
    return envelopes
