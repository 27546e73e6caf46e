"""Baseline comparison for benchmark reports: the no-regression gate.

``repro-bench --compare DIR`` reruns suites and judges each fresh report
against the committed baseline ``BENCH_<suite>.json`` in ``DIR``:

* **checksums must be byte-identical** -- a checksum mismatch means the
  *computed results* changed, which is a correctness bug dressed up as a
  perf number, and fails hard regardless of timings;
* **timings must not regress** beyond a tolerance -- each timing key's
  ``best_seconds`` may grow by at most ``tolerance`` (relative), because
  best-of-N is the noise-robust statistic (mean absorbs scheduler jitter);
* **parameters must match** -- comparing a quick run against a full
  baseline (or different seeds/sizes) would be meaningless, so the gate
  refuses rather than producing a garbage verdict.  Quick runs resolve
  to the suite's dedicated quick baseline (``BENCH_<name>.quick.json``),
  so both sizes can be committed and gated side by side.

Speedups below 1.0 within tolerance are reported but pass: baselines are
a *floor*, refreshed deliberately (rerun the suites and commit the new
reports) rather than ratcheted automatically.

A gate whose timing sits inside host noise judges :func:`median_report`
of several separate runs instead of one run (CI does so for the
``obs_overhead`` NullRecorder ratio).  Where the reference is another
source tree timed on the same host, :func:`paired_ratio_report` judges
the median of per-round ratios instead (CI does so for ``sim_engine``
against the parent commit).

A baseline recorded on another machine is still judged, by the same
gates, but the verdict line names every difference in
:data:`MACHINE_KEYS` (a key the baseline lacks shows as ``unknown``), so
a timing verdict across machines is never mistaken for a like-for-like
one.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.report import machine_info, report_path

__all__ = [
    "compare_report",
    "compare_to_baseline",
    "format_comparison",
    "machine_mismatch",
    "median_report",
    "paired_ratio_report",
]

#: Default allowed relative slowdown before a timing counts as a regression.
DEFAULT_TOLERANCE = 0.15

#: Payload keys that must match exactly for a comparison to be meaningful.
_COMPAT_KEYS = ("seed", "quick", "params")

#: The seconds fields of one timing entry.
_SECONDS_FIELDS = ("best_seconds", "mean_seconds", "total_seconds")

#: Machine keys whose differences the verdict reports (never gates on).
MACHINE_KEYS = ("cpu_count", "python", "numpy")


def machine_mismatch(baseline: dict, current: dict) -> List[str]:
    """``"key baseline -> current"`` for each :data:`MACHINE_KEYS` entry
    that differs between the two reports' ``machine`` blocks."""
    base = baseline.get("machine") or {}
    cur = current.get("machine") or {}
    lines = []
    for key in MACHINE_KEYS:
        was, now = base.get(key, "unknown"), cur.get(key, "unknown")
        if was != now:
            lines.append(f"{key} {was} -> {now}")
    return lines


def compare_report(
    baseline: dict,
    current: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Judge ``current`` against ``baseline``; returns the comparison dict.

    The result carries ``verdict`` (``"ok"``, ``"regression"``,
    ``"checksum_mismatch"``, or ``"incomparable"``), per-timing speedups
    (baseline best / current best; > 1 means faster now), and enough
    context to reconstruct the judgement from the artifact alone.
    """
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    suite = current.get("suite") or baseline.get("suite")
    comparison: dict = {
        "suite": suite,
        "tolerance": tolerance,
        "timings": {},
        "problems": [],
        "machine_mismatch": machine_mismatch(baseline, current),
    }

    for key in _COMPAT_KEYS:
        if baseline.get(key) != current.get(key):
            comparison["problems"].append(
                f"{key} differs: baseline={baseline.get(key)!r} "
                f"current={current.get(key)!r}"
            )
    if comparison["problems"]:
        comparison["verdict"] = "incomparable"
        return comparison

    if baseline.get("checksum") != current.get("checksum"):
        comparison["problems"].append(
            f"checksum mismatch: baseline={baseline.get('checksum')} "
            f"current={current.get('checksum')} -- computed results changed"
        )
        comparison["problems"].extend(_digest_mismatches(baseline, current))
        comparison["verdict"] = "checksum_mismatch"
        return comparison

    regressions: List[str] = []
    baseline_timings: Dict[str, dict] = baseline.get("timings", {})
    current_timings: Dict[str, dict] = current.get("timings", {})
    for name, base_stats in sorted(baseline_timings.items()):
        cur_stats = current_timings.get(name)
        if cur_stats is None:
            regressions.append(f"timing {name!r} missing from current report")
            continue
        base_best = float(base_stats["best_seconds"])
        cur_best = float(cur_stats["best_seconds"])
        speedup = base_best / cur_best if cur_best > 0 else float("inf")
        regressed = cur_best > base_best * (1.0 + tolerance)
        comparison["timings"][name] = {
            "baseline_best_seconds": base_best,
            "current_best_seconds": cur_best,
            "speedup": speedup,
            "regressed": regressed,
        }
        if regressed:
            regressions.append(
                f"timing {name!r} regressed: {base_best:.4f}s -> {cur_best:.4f}s "
                f"({cur_best / base_best - 1.0:+.1%}, tolerance {tolerance:.0%})"
            )
    comparison["problems"].extend(regressions)
    comparison["verdict"] = "regression" if regressions else "ok"
    return comparison


def _digest_mismatches(baseline: dict, current: dict) -> List[str]:
    """One line per key whose ``results.digests`` entry differs, when both
    reports hold digests (the ``experiments`` suite digests each
    experiment's stdout), so a mismatch names what changed."""
    base = (baseline.get("results") or {}).get("digests")
    cur = (current.get("results") or {}).get("digests")
    if not isinstance(base, dict) or not isinstance(cur, dict):
        return []
    return [
        f"digest of {name!r} differs: baseline={base.get(name)} current={cur.get(name)}"
        for name in sorted(base.keys() | cur.keys())
        if base.get(name) != cur.get(name)
    ]


def median_report(reports: Sequence[dict]) -> dict:
    """One report standing for several separate runs of one suite.

    It is the first run's report with every timing's seconds replaced by
    their median over ``reports``, and ``runs`` set to their number, so
    :func:`compare_report` judges the typical run rather than one run.

    Raises:
        ValueError: if ``reports`` is empty, or its runs differ in suite,
            seed, size, parameters or checksum.
    """
    if not reports:
        raise ValueError("median_report needs at least one report")
    first = reports[0]
    for report in reports[1:]:
        for key in ("suite", *_COMPAT_KEYS, "checksum"):
            if report.get(key) != first.get(key):
                raise ValueError(
                    f"runs differ in {key}: {first.get(key)!r} vs {report.get(key)!r}"
                )
    median = dict(first, runs=len(reports))
    median["timings"] = {
        name: {
            **stats,
            **{
                field: statistics.median(float(r["timings"][name][field]) for r in reports)
                for field in _SECONDS_FIELDS
            },
        }
        for name, stats in first.get("timings", {}).items()
    }
    return median


def _over(report: dict, reference: dict) -> dict:
    """``report`` with each timing's seconds divided by ``reference``'s;
    a timing ``reference`` lacks is dropped."""
    references = reference.get("timings", {})
    timings = {
        name: {
            **stats,
            **{
                field: float(stats[field]) / float(references[name][field])
                for field in _SECONDS_FIELDS
            },
        }
        for name, stats in report.get("timings", {}).items()
        if name in references
    }
    return dict(report, timings=timings)


def paired_ratio_report(
    baselines: Sequence[dict], currents: Sequence[dict]
) -> Tuple[dict, dict]:
    """Paired rounds of two source trees as a ``(baseline, current)`` pair
    for :func:`compare_report`.

    Round ``i`` ran ``baselines[i]`` and ``currents[i]`` back to back on
    one host, so load that shifts between rounds hits both alike and
    cancels in their ratio.  The current report's timings become the
    median over rounds of current/baseline seconds, and the baseline's
    become 1.0: :func:`compare_report` then judges the typical round's
    slowdown against its tolerance, as ``obs_overhead`` judges its paired
    ratio.  Checksums, seeds and parameters are compared as usual.

    Raises:
        ValueError: if the sequences differ in length or are empty, or
            either side's runs differ from each other.
    """
    if len(baselines) != len(currents):
        raise ValueError(
            f"need one current run per baseline run, got {len(baselines)} and {len(currents)}"
        )
    baseline = median_report(baselines)
    current = median_report(
        [_over(run, reference) for reference, run in zip(baselines, currents)]
    )
    return _over(baseline, baseline), current


def compare_to_baseline(
    name: str,
    current: dict,
    baseline_dir: Union[str, Path],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Optional[dict]:
    """Compare suite ``name``'s fresh payload against its committed baseline.

    Returns ``None`` when ``baseline_dir`` has no report for the suite (a
    new suite is not a regression; commit its report to start gating it).

    Quick runs are judged against the suite's *quick* baseline
    (``BENCH_<name>.quick.json``), full runs against the full one, so
    quick and full gates can share one baseline directory without ever
    comparing across sizes.
    """
    path = report_path(name, baseline_dir, quick=bool(current.get("quick")))
    if not path.exists():
        return None
    baseline = json.loads(path.read_text())
    document = dict(current)
    document.setdefault("suite", name)
    document.setdefault("machine", machine_info())
    return compare_report(baseline, document, tolerance=tolerance)


def format_comparison(comparison: dict) -> str:
    """One human-readable block per suite for the CLI and CI logs."""
    verdict = f"{comparison['suite']}: {comparison['verdict'].upper()}"
    if comparison.get("machine_mismatch"):
        verdict += f" (machine differs: {', '.join(comparison['machine_mismatch'])})"
    lines = [verdict]
    for name, entry in sorted(comparison.get("timings", {}).items()):
        marker = "REGRESSED" if entry["regressed"] else "ok"
        lines.append(
            f"  {name:20s} {entry['baseline_best_seconds']:.4f}s -> "
            f"{entry['current_best_seconds']:.4f}s  "
            f"x{entry['speedup']:.2f}  [{marker}]"
        )
    for problem in comparison.get("problems", []):
        lines.append(f"  ! {problem}")
    return "\n".join(lines)
