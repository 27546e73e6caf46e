"""Shared-memory column transport for sharded runs.

Shard workers historically shipped only envelope metrics (a few hundred
bytes).  Shipping raw per-task *columns* -- response times, jobs used,
waves, correctness -- through the pickle channel would swamp the fan-out
win at million-task scale, so this module moves the bulk bytes out of
band: the worker copies its columns into a POSIX shared-memory segment
and ships a tiny picklable :class:`ColumnBlockHandle`; the parent
attaches, reduces, and unlinks each segment in turn.

Lifetime protocol (the subtle part):

* The **creating worker** exits before the parent ever attaches --
  :func:`~repro.parallel.engine.parallel_map` tears the pool down before
  returning results -- so the worker must *unregister* its segment from
  its own ``resource_tracker`` (which would otherwise unlink the
  segment at worker exit) and close its mapping without unlinking.
* The **parent** attaches by name (re-registering with its own tracker),
  reads or reduces, then ``close()`` + ``unlink()`` exactly once.  On
  every supported CPython the attach/unlink pair keeps the parent's
  tracker balanced, so no "leaked shared_memory" warnings fire.

The payload layout is deliberately dumb: one segment per shard, columns
concatenated back to back, and the dtype/shape/offset table carried in
the handle itself (plain strings and ints, so the handle pickles small
and fingerprints never see it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

try:  # POSIX shared memory may be unavailable
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]


def shm_available() -> bool:
    """Whether the shared-memory transport can run on this platform."""
    return shared_memory is not None


def _require_shm() -> None:
    if not shm_available():
        raise RuntimeError(
            "the shared-memory shard transport needs "
            "multiprocessing.shared_memory; use transport='pickle'"
        )


@dataclass(frozen=True)
class ColumnBlockHandle:
    """Picklable reference to one shard's columns in shared memory.

    Attributes:
        name: The shared-memory segment name to attach to.
        layout: ``column -> (dtype string, length, byte offset)``.
        nbytes: Total payload size (diagnostics; the segment may be
            slightly larger because segments cannot be zero-sized).
    """

    name: str
    layout: Tuple[Tuple[str, Tuple[str, int, int]], ...]
    nbytes: int

    def columns(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.layout)


def _untrack(name: str) -> None:
    """Drop ``name`` from this process's resource tracker (best effort).

    The creating worker dies before the parent attaches; without this,
    the worker's tracker unlinks the segment at interpreter exit and the
    parent finds nothing.  The parent's own attach re-registers the
    segment, and its ``unlink()`` balances that registration.
    """
    try:
        resource_tracker.unregister(name, "shared_memory")
    except Exception:  # pragma: no cover - tracker quirks are platform-bound
        pass


def write_columns(columns: Dict[str, "np.ndarray"]) -> ColumnBlockHandle:
    """Copy ``columns`` into a fresh shared-memory segment (worker side).

    Returns the handle to ship back through the pickle channel.  The
    segment is left for the parent to unlink; the worker's own tracker
    registration is removed so worker exit cannot reap it first.
    """
    _require_shm()
    layout = []
    offset = 0
    for name, column in columns.items():
        column = np.ascontiguousarray(column)
        layout.append((name, (column.dtype.str, int(column.shape[0]), offset)))
        offset += int(column.nbytes)
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        for name, (dtype, length, start) in layout:
            view = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=segment.buf, offset=start
            )
            view[:] = columns[name]
            del view  # drop the buffer view before close()
    finally:
        handle = ColumnBlockHandle(
            name=segment.name, layout=tuple(layout), nbytes=offset
        )
        segment.close()
        _untrack(segment._name)
    return handle


def read_columns(
    handle: ColumnBlockHandle, *, unlink: bool = True
) -> Dict[str, "np.ndarray"]:
    """Attach, copy out the columns, and (by default) unlink (parent side).

    The returned arrays are private copies, safe to keep after the
    segment is gone.  Pass ``unlink=False`` to leave the segment alive
    (the caller then owns the eventual :func:`release_columns`).
    """
    _require_shm()
    segment = shared_memory.SharedMemory(name=handle.name)
    try:
        out = {}
        for name, (dtype, length, start) in handle.layout:
            view = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=segment.buf, offset=start
            )
            out[name] = view.copy()
            del view
    finally:
        segment.close()
        if unlink:
            segment.unlink()
    return out


def release_columns(handle: Optional[ColumnBlockHandle]) -> None:
    """Unlink a handle's segment without reading it (cleanup path)."""
    if handle is None or not shm_available():
        return
    try:
        segment = shared_memory.SharedMemory(name=handle.name)
    except FileNotFoundError:
        return
    segment.close()
    segment.unlink()
