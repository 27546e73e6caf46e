"""Command-line entry point for the benchmark harness.

Usage::

    python -m repro.bench --quick
    python -m repro.bench experiments --quick --jobs 2 --compare benchmarks/baselines
    python -m repro.bench sim_engine --profile 25

Writes one ``BENCH_<suite>.json`` per suite and prints a one-line summary
each.  The ``experiments`` suite runs every paper experiment through its
CLI; its checksum, compared against a baseline recorded at ``--jobs 1``,
is the replication engine's jobs-invariance contract for the figures.

With ``--compare DIR`` each fresh report is additionally judged against
the committed baseline in ``DIR`` (see :mod:`repro.bench.compare`):
checksums must match exactly and no timing may regress beyond
:data:`~repro.bench.compare.DEFAULT_TOLERANCE`; any violation exits
non-zero and the full comparison is written to ``BENCH_comparison.json``
in the output directory for CI to upload.  A suite with no committed
baseline (``sim_engine``, whose seconds CI judges against the parent
commit instead) is skipped.

With ``--profile N`` each suite runs once under :mod:`cProfile` (after
the timed runs, so profiling overhead never pollutes the numbers) and the
top ``N`` functions by cumulative time are printed -- the entry point of
the optimization workflow documented in ``docs/performance.md``.

With ``--history PATH`` each suite additionally appends one JSONL row
(suite, gated best-seconds, checksum, git sha, timestamp) to PATH --
the committed trajectory lives at ``benchmarks/history.jsonl``; see
:mod:`repro.bench.history`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.compare import compare_to_baseline, format_comparison
from repro.bench.history import append_history
from repro.bench.report import write_report
from repro.bench.suites import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the DES event loop, telemetry overhead and the "
        "paper's experiments.",
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
        help="worker processes for the experiments (default: all CPUs)",
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
        print(f"{name}: {payload['wall_clock_seconds']:.2f}s -> {path}")
        if args.history is not None:
            append_history(args.history, name, payload)
        if args.compare is not None:
            comparison = compare_to_baseline(name, payload, args.compare)
            if comparison is None:
                print(f"{name}: no baseline in {args.compare}; skipping compare")
            else:
                comparisons.append(comparison)
                print(format_comparison(comparison))
        if args.profile is not None:
            _profile_suite(name, args, args.profile)
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
    for comparison in bad:
        print(
            f"benchmark FAILED: {comparison['suite']} "
            f"verdict={comparison['verdict']}",
            file=sys.stderr,
        )
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
