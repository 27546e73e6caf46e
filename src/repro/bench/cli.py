"""Command-line entry point for the benchmark harness.

Usage::

    python -m repro.bench --quick
    python -m repro.bench experiments --quick --jobs 2 --compare benchmarks/baselines
    python -m repro.bench decide_loops --compare benchmarks/baselines
    python -m repro.bench dca_run --profile 25

Writes one ``BENCH_<suite>.json`` per suite and prints a one-line summary
each.  Exits non-zero if a ``scale`` suite's parallel checksum diverges
from the serial one -- CI treats that as a broken determinism contract.
The ``experiments`` suite runs every paper experiment through its CLI;
its checksum, compared against a baseline recorded at ``--jobs 1``, is
the same contract for the figures.

With ``--compare DIR`` each fresh report is additionally judged against
the committed baseline in ``DIR`` (see :mod:`repro.bench.compare`):
checksums must match exactly and no timing may regress beyond
``--tolerance``; any violation exits non-zero and the full comparison is
written to ``BENCH_comparison.json`` in the output directory for CI to
upload.

With ``--profile N`` each suite runs once under :mod:`cProfile` (after
the timed runs, so profiling overhead never pollutes the numbers) and the
top ``N`` functions by cumulative time are printed -- the entry point of
the optimization workflow documented in ``docs/performance.md``.

With ``--history PATH`` each suite additionally appends one JSONL row
(suite, gated best-seconds, checksum, git sha, timestamp) to PATH --
the committed trajectory lives at ``benchmarks/history.jsonl``; see
:mod:`repro.bench.history`.

The ``scale_*`` regime suites also carry a throughput-floor gate: at
full size the sharded columnar engine must beat the object DES by
``DES_SPEEDUP_FLOOR``; a report with ``below_des_floor`` set exits
non-zero like a checksum divergence.  ``obs_overhead`` carries a
ceiling the same way: at full size the full ``TelemetryRecorder`` may
slow a DES run by at most ``TELEMETRY_RATIO_CEILING``, and a report with
``above_telemetry_ceiling`` set exits non-zero.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    compare_to_baseline,
    format_comparison,
)
from repro.bench.history import append_history
from repro.bench.report import write_report
from repro.bench.suites import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the voting hot paths and the replication engine.",
    )
    parser.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help=f"suites to run (default: all of {sorted(SUITES)})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced problem sizes and repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the parallel legs and experiments (default: all CPUs)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats per case (default: per-suite)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory for BENCH_<suite>.json reports (default: cwd)",
    )
    parser.add_argument("--list", action="store_true", help="list suites and exit")
    parser.add_argument(
        "--compare",
        metavar="DIR",
        default=None,
        help="judge fresh reports against baseline BENCH_<suite>.json files "
        "in DIR; exits non-zero on checksum mismatch or timing regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative slowdown per timing before --compare fails "
        f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default=None,
        help="append one schema-versioned JSONL row per suite (suite, gated "
        "best-seconds, checksum, git sha, timestamp) to PATH "
        "(e.g. benchmarks/history.jsonl)",
    )
    parser.add_argument(
        "--profile",
        type=int,
        metavar="N",
        default=None,
        help="after timing, rerun each suite once under cProfile and print "
        "the top N functions by cumulative time",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="after timing, run one instrumented DCA simulation and write "
        "its telemetry capture to PATH (inspect with 'repro-obs summary')",
    )
    return parser


def _profile_suite(name: str, args: argparse.Namespace, top: int) -> None:
    """One extra run of ``name`` under cProfile; prints the top functions."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    run_suite(
        name,
        seed=args.seed,
        jobs=args.jobs,
        quick=args.quick,
        repeats=1,
    )
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    print(f"--- profile: {name} (top {top} by cumulative time) ---")
    print(buffer.getvalue())


def _telemetry_capture(args: argparse.Namespace) -> None:
    """One instrumented DCA run, saved as a capture.

    Runs *after* the timed suites (like ``--profile``) so recording
    never pollutes the benchmark numbers.
    """
    from repro.core import IterativeRedundancy
    from repro.dca import DcaConfig, run_dca
    from repro.obs import Capture, TelemetryRecorder
    from repro.obs.host import capture_meta

    tasks = 300 if args.quick else 1_500
    nodes = 100 if args.quick else 300
    recorder = TelemetryRecorder(max_spans=20_000, max_events=20_000)
    run_dca(
        DcaConfig(
            strategy=IterativeRedundancy(3),
            tasks=tasks,
            nodes=nodes,
            reliability=0.7,
            seed=args.seed,
        ),
        recorder=recorder,
    )
    meta = capture_meta("bench:dca_run", quick=args.quick, seed=args.seed)
    path = Capture.from_recorder(
        recorder, meta=meta, label="iterative(d=3) x1"
    ).save(args.telemetry)
    print(f"telemetry capture -> {path}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in sorted(SUITES):
            summary = (SUITES[name].__doc__ or "").strip().splitlines()[0]
            print(f"  {name:15s} {summary}")
        return 0
    names = args.suites or sorted(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        print(
            f"unknown suite(s) {unknown}; choose from {sorted(SUITES)}",
            file=sys.stderr,
        )
        return 2
    repeats = args.repeats
    if repeats is None and args.quick:
        repeats = 1
    diverged = False
    hard_gate_failed = False
    comparisons = []
    for name in names:
        payload = run_suite(
            name,
            seed=args.seed,
            jobs=args.jobs,
            quick=args.quick,
            repeats=repeats,
        )
        path = write_report(name, payload, output_dir=args.output_dir)
        line = f"{name}: {payload['wall_clock_seconds']:.2f}s -> {path}"
        results = payload.get("results", {})
        if "speedup" in results:
            line += f" (speedup x{results['speedup']:.2f})"
        print(line)
        if payload.get("diverged"):
            diverged = True
            print(
                f"ERROR: {name}: parallel checksum "
                f"{payload['parallel_checksum'][:16]}... diverged from serial "
                f"{payload['serial_checksum'][:16]}...",
                file=sys.stderr,
            )
        if payload.get("below_des_floor"):
            hard_gate_failed = True
            print(
                f"ERROR: {name}: columnar speedup over the DES fell to "
                f"x{payload['results']['speedup_vs_des']:.1f}, below the "
                "committed floor",
                file=sys.stderr,
            )
        if payload.get("above_telemetry_ceiling"):
            hard_gate_failed = True
            print(
                f"ERROR: {name}: the full recorder's time ratio over a bare "
                f"run rose to x{payload['results']['telemetry_recorder_ratio']:.3f}, "
                "above the committed ceiling",
                file=sys.stderr,
            )
        if args.history is not None:
            append_history(args.history, name, payload)
        if args.compare is not None:
            comparison = compare_to_baseline(
                name, payload, args.compare, tolerance=args.tolerance
            )
            if comparison is None:
                print(f"{name}: no baseline in {args.compare}; skipping compare")
            else:
                comparisons.append(comparison)
                print(format_comparison(comparison))
        if args.profile is not None:
            _profile_suite(name, args, args.profile)
    if args.telemetry is not None:
        _telemetry_capture(args)
    failed = diverged or hard_gate_failed
    if comparisons:
        import json
        from pathlib import Path

        artifact = Path(args.output_dir) / "BENCH_comparison.json"
        artifact.parent.mkdir(parents=True, exist_ok=True)
        artifact.write_text(
            json.dumps({"comparisons": comparisons}, indent=2, sort_keys=True) + "\n"
        )
        print(f"comparison artifact -> {artifact}")
        bad = [c for c in comparisons if c["verdict"] != "ok"]
        if bad:
            failed = True
            for comparison in bad:
                print(
                    f"benchmark FAILED: {comparison['suite']} "
                    f"verdict={comparison['verdict']}",
                    file=sys.stderr,
                )
    if diverged:
        print(
            "benchmark FAILED: parallel results diverged from serial baseline",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
