"""Benchmark harness for the paper's experiments, the DES event loop,
telemetry overhead and the sharded scale tier.

Each suite times a code path with :func:`time.perf_counter` and emits a
schema-versioned ``BENCH_<name>.json`` report (machine, python, seed,
wall-clock stats, and a checksum of the computed results so CI can
detect serial/parallel divergence alongside perf drift).  The
``experiments`` suite times each of the paper's experiments end to end,
one fresh ``repro-experiments`` interpreter each, and digests its output.

Run it with::

    python -m repro.bench --quick
    python -m repro.bench experiments --jobs 2

Benchmarks measure wall-clock time by design; the simulation packages
themselves stay wall-clock-free (reprolint RL002).
"""

from repro.bench.report import (
    SCHEMA_VERSION,
    machine_info,
    report_path,
    write_report,
)
from repro.bench.suites import SUITES, run_suite, run_suites
from repro.bench.timing import TimingStats, time_callable

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "TimingStats",
    "machine_info",
    "report_path",
    "run_suite",
    "run_suites",
    "time_callable",
    "write_report",
]
