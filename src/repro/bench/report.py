"""Schema-versioned benchmark reports (``BENCH_<name>.json``).

The schema is the contract CI depends on: bump :data:`SCHEMA_VERSION`
whenever a field changes meaning, so downstream trajectory tooling can
tell eras apart instead of silently comparing incompatible numbers.

Quick-mode runs write ``BENCH_<name>.quick.json`` instead, so a suite
can commit *two* baselines -- a full-size one and a quick one for
smoke gates -- without either overwriting the other.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Optional, Union

import numpy

#: Bump on any incompatible change to the report layout.
SCHEMA_VERSION = 1


def machine_info() -> dict:
    """Where the numbers came from; perf is meaningless without this.

    Includes the numpy version: columnar checksums are byte-identical
    only for a given numpy (its generators and reductions define them).
    """
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
    }


def report_path(
    name: str,
    output_dir: Union[str, Path] = ".",
    *,
    quick: bool = False,
) -> Path:
    """The canonical location of one suite's report (or quick report)."""
    suffix = ".quick.json" if quick else ".json"
    return Path(output_dir) / f"BENCH_{name}{suffix}"


def write_report(
    name: str,
    payload: dict,
    *,
    output_dir: Union[str, Path] = ".",
    quick: Optional[bool] = None,
) -> Path:
    """Write one suite's report; returns the path written.

    The payload is wrapped with the schema version and machine info; the
    suite supplies the seed, timings, results, and checksum fields.
    ``quick`` defaults to the payload's own ``quick`` flag, so quick runs
    land in ``BENCH_<name>.quick.json`` automatically.
    """
    if quick is None:
        quick = bool(payload.get("quick"))
    document = {
        "schema_version": SCHEMA_VERSION,
        "suite": name,
        "machine": machine_info(),
        **payload,
    }
    path = report_path(name, output_dir, quick=quick)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
