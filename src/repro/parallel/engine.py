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
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    """

    def __init__(
        self,
        message: str,
        *,
        position: int = -1,
        error_type: str = "",
        traceback_text: str = "",
    ) -> None:
        super().__init__(message)
        self.position = position
        self.error_type = error_type
        self.traceback_text = traceback_text

    @classmethod
    def from_crash(cls, crash: WorkerCrash) -> "ReplicateError":
        return cls(
            f"replicate #{crash.position} crashed in worker: "
            f"{crash.error_type}: {crash.message}",
            position=crash.position,
            error_type=crash.error_type,
            traceback_text=crash.traceback_text,
        )


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
            f"in-process: {exc}"
        ) from exc
    if crashes:
        first = min(crashes, key=lambda crash: crash.position)
        raise ReplicateError.from_crash(first)
    return [results[position] for position in range(len(work))]


def _serial_map(worker: Callable[[Any], Any], work: Sequence[Any]) -> List[Any]:
    """The legacy in-process path, with the same crash surface."""
    out: List[Any] = []
    for position, item in enumerate(work):
        try:
            out.append(worker(item))
        except ReplicateError:
            raise
        except Exception as exc:
            raise ReplicateError(
                f"replicate #{position} crashed: {type(exc).__name__}: {exc}",
                position=position,
                error_type=type(exc).__name__,
                traceback_text=traceback.format_exc(),
            ) from exc
    return out
