"""Append-only benchmark history (``benchmarks/history.jsonl``).

Baselines (:mod:`repro.bench.compare`) answer "did this PR regress?";
the history answers "how did we get here?" -- one JSON line per suite
run, appended by ``repro-bench --history PATH``, carrying just enough to
plot a performance trajectory across commits: the suite, its gated
best-seconds, the correctness checksum, the git revision, the CPU
count, and a timestamp.

Rows are schema-versioned independently of the report schema, so the
trajectory tooling can tell eras apart; the file is plain JSONL so a
truncated last line (a killed CI job) never corrupts earlier rows --
readers skip lines that fail to parse.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Bump on any incompatible change to the row layout.
HISTORY_SCHEMA_VERSION = 1


def current_git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """The repo's HEAD revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def history_row(
    name: str,
    payload: Dict[str, Any],
    *,
    timestamp: str,
    git_sha: str,
    nproc: Optional[int] = None,
) -> Dict[str, Any]:
    """One history row for a suite's report payload.

    The timestamp and ``nproc`` (the CPU count, recorded when given) are
    injected, never read from the machine here, so rows are a pure
    function of their inputs (and tests can pin them).  A payload's
    ``jobs`` and ``results.telemetry_recorder_ratio`` (``obs_overhead``)
    are copied into the row when present, so rows at different worker
    counts tell apart and the full recorder's cost shows in the
    trajectory.
    """
    row = {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "suite": name,
        "quick": bool(payload.get("quick")),
        "seed": payload.get("seed"),
        "checksum": payload.get("checksum"),
        "best_seconds": {
            timing: stats["best_seconds"]
            for timing, stats in payload.get("timings", {}).items()
        },
        "wall_clock_seconds": payload.get("wall_clock_seconds"),
        "git_sha": git_sha,
        "timestamp": timestamp,
    }
    if nproc is not None:
        row["nproc"] = nproc
    if payload.get("jobs") is not None:
        row["jobs"] = payload["jobs"]
    ratio = payload.get("results", {}).get("telemetry_recorder_ratio")
    if ratio is not None:
        row["telemetry_recorder_ratio"] = ratio
    return row


def append_history(
    path: Union[str, Path],
    name: str,
    payload: Dict[str, Any],
    *,
    timestamp: Optional[str] = None,
    git_sha: Optional[str] = None,
    nproc: Optional[int] = None,
) -> Dict[str, Any]:
    """Append one row for ``payload`` to the JSONL file at ``path``.

    Creates the file (and parents) on first use.  Returns the row
    written.  ``timestamp`` defaults to the current UTC time in
    ISO-8601, ``git_sha`` to the checkout's HEAD and ``nproc`` to
    :func:`os.cpu_count` -- all injectable for tests.
    """
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if git_sha is None:
        git_sha = current_git_sha()
    if nproc is None:
        nproc = os.cpu_count()
    row = history_row(name, payload, timestamp=timestamp, git_sha=git_sha, nproc=nproc)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as stream:
        stream.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def read_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All parseable rows at ``path`` (skipping corrupt/truncated lines)."""
    target = Path(path)
    if not target.exists():
        return []
    rows = []
    for line in target.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return rows
