"""Command-line entry point: regenerate any of the paper's figures.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments figure3
    python -m repro.experiments figure5a --scale smoke
    python -m repro.experiments all --scale default
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENTS
from repro.experiments.plotting import ascii_plot


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of 'Smart Redundancy for "
            "Distributed Computation' (ICDCS 2011)."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment name (see --list), or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="default",
        help="run size: smoke (seconds), default (a few minutes), full (the paper's scale)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for replicated simulations (default: all "
            "CPUs; --jobs 1 runs the exact in-process serial path; "
            "results are identical for any value)"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help=(
            "record run telemetry (metrics, spans, events) and write a "
            "capture JSON to PATH; inspect it with 'repro-obs summary'"
        ),
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="print the figure's data table and an ASCII scatter plot of the same series",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the figure's data series, at --scale, as JSON instead of a table",
    )
    return parser


#: Axis labels for --plot; figures not listed plot reliability vs cost.
_PLOT_LABELS = {
    "figure5c": ("node reliability r", "improvement over TR"),
    "figure6": ("cost factor", "response time"),
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if args.list or args.experiment is None:
        print("available experiments:")
        for name, module in sorted(EXPERIMENTS.items()):
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:10s} {summary}")
        print("  all        run every experiment in sequence")
        return 0
    if args.telemetry is None:
        return _run(args, jobs)
    from repro.obs.context import TelemetrySink, clear_sink, install_sink
    from repro.obs.host import capture_meta

    sink = TelemetrySink()
    install_sink(sink)
    try:
        code = _run(args, jobs)
    finally:
        clear_sink()
    if code == 0:
        meta = capture_meta(
            f"experiments:{args.experiment}", scale=args.scale, jobs=jobs
        )
        sink.capture(meta).save(args.telemetry)
        print(f"telemetry capture written to {args.telemetry}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace, jobs: int) -> int:
    if args.experiment == "all":
        for name, module in EXPERIMENTS.items():
            print(module.main(args.scale, jobs=jobs))
            print()
        return 0
    module = EXPERIMENTS.get(args.experiment)
    if module is None:
        print(f"unknown experiment {args.experiment!r}; try --list", file=sys.stderr)
        return 2
    run = getattr(module, "run", None)
    if args.json and run is None:
        print(f"(no JSON output available for {args.experiment})", file=sys.stderr)
        return 2
    if run is None or not (args.json or args.plot):
        print(module.main(args.scale, jobs=jobs))
        if args.plot:
            print(f"(no plot available for {args.experiment})", file=sys.stderr)
        return 0
    # --json and --plot show the one computation the table is rendered from.
    result = run(args.scale, jobs=jobs)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return 0
    x_label, y_label = _PLOT_LABELS.get(args.experiment, ("cost factor", "reliability"))
    print(module.render(result))
    print()
    print(ascii_plot(result, x_label=x_label, y_label=y_label))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
