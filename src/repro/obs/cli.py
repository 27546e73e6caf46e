"""The ``repro-obs`` command: inspect, export, and diff telemetry captures.

Usage::

    repro-obs summary capture.json
    repro-obs export capture.json --format chrome --output trace.json
    repro-obs export capture.json --format prometheus
    repro-obs diff before.json after.json [--only-changed]

Captures come from ``repro-experiments --telemetry <path>`` (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.capture import Capture, diff_captures, format_diff
from repro.obs.export import EXPORTERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect, export, and diff repro telemetry captures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser("summary", help="print a capture's metric/span overview")
    summary.add_argument("capture", help="capture file (from --telemetry)")

    export = sub.add_parser("export", help="render a capture in an exchange format")
    export.add_argument("capture", help="capture file (from --telemetry)")
    export.add_argument(
        "--format",
        choices=sorted(EXPORTERS),
        default="jsonl",
        help="output format (default: jsonl); 'chrome' loads in Perfetto",
    )
    export.add_argument(
        "--output",
        default=None,
        help="write here instead of stdout",
    )

    diff = sub.add_parser("diff", help="metric deltas between two captures")
    diff.add_argument("capture_a", help="baseline capture")
    diff.add_argument("capture_b", help="comparison capture")
    diff.add_argument(
        "--only-changed",
        action="store_true",
        help="hide series whose delta is zero",
    )
    return parser


def _family_total(family: dict) -> str:
    """One summary cell per family: total/last/mean over its series."""
    series = family.get("series", [])
    if not series:
        return "-"
    if family["kind"] == "counter":
        return str(sum(entry["value"] for entry in series))
    if family["kind"] == "gauge":
        return ", ".join(f"{entry['value']:.6g}" for entry in series[:3])
    count = sum(entry["count"] for entry in series)
    total = sum(entry["sum"] for entry in series)
    mean = total / count if count else 0.0
    return f"n={count} mean={mean:.4g}"


def _summary(capture: Capture) -> str:
    meta = capture.meta
    lines = [f"capture: {meta.get('label', '(unlabeled)')}"]
    for key in sorted(meta):
        if key != "label":
            lines.append(f"  {key}: {meta[key]}")
    lines.append(
        f"runs: {len(capture.runs)}  spans: {len(capture.spans)}  "
        f"events: {len(capture.events)}"
    )
    if capture.runs:
        for index, run in enumerate(capture.runs[:10]):
            lines.append(f"  run[{index}]: {run.get('label', '?')}")
        if len(capture.runs) > 10:
            lines.append(f"  ... and {len(capture.runs) - 10} more runs")
    if capture.metrics:
        width = max(len(name) for name in capture.metrics)
        lines.append("metrics:")
        for name in sorted(capture.metrics):
            family = capture.metrics[name]
            lines.append(
                f"  {name.ljust(width)}  {family['kind']:9s}  {_family_total(family)}"
            )
    else:
        lines.append("metrics: (none)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summary":
            print(_summary(Capture.load(args.capture)))
            return 0
        if args.command == "export":
            rendered = EXPORTERS[args.format](Capture.load(args.capture))
            if args.output:
                with open(args.output, "w") as handle:
                    handle.write(rendered)
                print(f"{args.format} export -> {args.output}", file=sys.stderr)
            else:
                sys.stdout.write(rendered)
            return 0
        # diff
        rows = diff_captures(Capture.load(args.capture_a), Capture.load(args.capture_b))
        print(format_diff(rows, only_changed=args.only_changed))
        return 0
    except (OSError, ValueError) as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
