"""End-to-end benchmark: the workloads, metrics and bounds of BENCHMARK.json.

One workload, one fresh interpreter (what BENCHMARK.json's ``command``
runs)::

    python3 benchmarks/e2e/run.py --workload des-contended --seed 3 \\
        --seconds 25 --trace 0

builds the workload's inputs from the seed, runs one untimed warm-up
iteration, then closed-loop iterations until ``--seconds`` have passed,
checks every iteration (:mod:`checks`, plus same-fingerprint determinism)
and prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``, which adds one traced iteration and the
in-process layer probes after the timed loop.

A result set -- every workload, ``SUITE_RUNS`` fresh interpreters each
on consecutive seeds, reported as medians and quartiles, with every run's
results and traces written to a directory::

    python3 benchmarks/e2e/run.py --seed 0 --out e2e-out/set1 [--trace] [--smoke]

and two such result sets judged against the bounds of BENCHMARK.json::

    python3 benchmarks/e2e/run.py --compare e2e-out/set1/results.json e2e-out/set2/results.json

Load comes from this process and at most ``JOBS`` pool workers; BLAS and
OpenMP pools are pinned to one thread.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Pool workers: two, or fewer on a smaller machine.
JOBS = min(2, os.cpu_count() or 1)

#: Fresh interpreters timed for ``setup_s`` before the timed loop, and
#: again after it (the median of all is reported).  The machine's speed
#: drifts over seconds, so probes at both ends of a run vary less than
#: the same number in one burst.
SETUP_PROBES_PER_SIDE = 3

#: Runs per workload in a result set (``--out`` without ``--workload``).
SUITE_RUNS = 5

#: Timed seconds per workload with --smoke (unless --seconds is given).
SMOKE_SECONDS = 0.3

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rss_peak_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def own_command(*args: str) -> List[str]:
    return [sys.executable, str(HERE / "run.py"), *args]


def time_setup(name: str, seed: int, smoke: bool) -> float:
    """Seconds from launching a fresh interpreter to its inputs being built.

    The child prints the wall-clock time at which it finished building,
    so neither its exit nor the parent's wait polling is counted.
    """
    command = own_command("--setup-probe", "--workload", name, "--seed", str(seed))
    if smoke:
        command.append("--smoke")
    start = time.time()
    done = subprocess.run(
        command, check=True, stdout=subprocess.PIPE, text=True, timeout=120
    )
    return float(done.stdout.split()[-1]) - start


class Harness:
    """Runs one workload's iterations and keeps the tally."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[str] = None

    def attempt(self, tracer):
        """One iteration: returns ``(outcome or None, seconds)``.

        ``None`` means it raised or failed a check; either counts as a
        failed attempt.  The first successful iteration's fingerprint is
        the reference every later one must reproduce.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.workload.iterate(tracer)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.failed += 1
            return None, elapsed
        elapsed = time.perf_counter() - start
        failures = list(outcome.failures)
        if self.reference is None:
            self.reference = outcome.fingerprint
        elif outcome.fingerprint != self.reference:
            failures.append("result fingerprint differs from the first iteration's")
        if failures:
            for failure in failures:
                print(f"{self.workload.name}: {failure}", file=sys.stderr)
            self.failed += 1
            return None, elapsed
        return outcome, elapsed


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, warm up, time, and (with --trace 1) trace one workload."""
    probes = 1 if args.smoke else SETUP_PROBES_PER_SIDE
    setup = [time_setup(args.workload, args.seed, args.smoke) for _ in range(probes)]
    import numpy
    from tracing import NULL, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](seed=args.seed, smoke=args.smoke, jobs=JOBS)
    harness = Harness(workload)
    harness.attempt(NULL)  # warm-up
    samples: List[float] = []
    tasks = 0
    while sum(samples) < args.seconds:
        gc.collect()
        outcome, elapsed = harness.attempt(NULL)
        samples.append(elapsed)
        if outcome is not None:
            tasks += outcome.tasks
        # Free this iteration's results before the next one runs, so the
        # collector never walks two iterations' worth of live objects.
        del outcome
    # Before the later probes: a child's ru_maxrss starts from its
    # parent's peak, so they would inflate it.
    rss = rss_peak_mb()
    setup += [time_setup(args.workload, args.seed, args.smoke) for _ in range(probes)]
    p50 = statistics.median(samples)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "iter_s.p50": p50,
        "tasks_per_s": tasks / sum(samples),
        "rss_peak_mb": rss,
    }
    counts = {"setup_s": len(setup), "iter_s.p50": len(samples), "tasks_per_s": len(samples)}
    record: Dict[str, Any] = {
        "workload": workload.name,
        "manifest": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "jobs": JOBS,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            **{var: os.environ[var] for var in THREAD_VARS},
            **workload.manifest(),
        },
        "metrics": _with_units(spec["end_to_end"], end_to_end, counts),
        "iter_samples_s": samples,
        "setup_samples_s": setup,
    }

    if args.trace:
        gc.collect()
        tracer = Tracer()
        with tracer.span("iteration"):
            outcome, _ = harness.attempt(tracer)
        # A layer the workload never reaches did no work and took no time.
        layers = {metric["name"]: 0.0 for metric in spec["per_layer"]}
        if outcome is not None:
            try:
                measured = workload.layer_metrics(tracer, outcome)
            except Exception:
                traceback.print_exc()
                harness.failed += 1
            else:
                measured["trace_overhead"] = tracer.total("iteration") / p50 - 1.0
                unknown = set(measured) - set(layers)
                if unknown:
                    raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
                layers.update(measured)
        record["per_layer"] = _with_units(spec["per_layer"], layers, {})
        if args.out:
            trace_path = Path(args.out) / f"trace-{workload.name}.json"
            tracer.write_chrome(str(trace_path), workload.name)
            record["trace_file"] = trace_path.name

    record.update(
        correct=harness.failed == 0,
        attempted=harness.attempted,
        failed=harness.failed,
        fail_frac=harness.failed / harness.attempted,
        fingerprint=harness.reference,
    )
    return record


def _with_units(declared, values: Dict[str, float], counts: Dict[str, int]) -> Dict[str, Any]:
    out = {}
    for metric in declared:
        entry = {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        if metric["name"] in counts:
            entry["samples"] = counts[metric["name"]]
        out[metric["name"]] = entry
    return out


def result_line(record: Dict[str, Any], trace: bool) -> str:
    """The last stdout line: the contract's JSON object."""
    metrics = record["per_layer"] if trace else record["metrics"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }
    )


def _aggregate(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One workload's runs in a result set: medians and quartiles per metric."""
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    manifest = {key: value for key, value in runs[0]["manifest"].items() if key != "seed"}
    summary: Dict[str, Any] = {
        "manifest": manifest,
        "fingerprints": {str(run["manifest"]["seed"]): run["fingerprint"] for run in runs},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "correct": failed == 0,
        "runs": runs,
    }
    for key in ("metrics", "per_layer"):
        if key not in runs[0]:
            continue
        summary[key] = {}
        for name, entry in runs[0][key].items():
            values = [run[key][name]["value"] for run in runs]
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            summary[key][name] = {
                "value": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "unit": entry["unit"],
                "runs": len(values),
            }
    return summary


def run_suite(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload, each run in its own interpreter; results into ``--out``.

    A set makes ``SUITE_RUNS`` runs per workload on consecutive seeds,
    workloads interleaved so slow drift in machine speed hits all alike,
    and reports each metric's median and quartiles over them.
    """
    out = Path(args.out)
    seeds = [args.seed] if args.smoke else [args.seed + run for run in range(SUITE_RUNS)]
    names = [workload["name"] for workload in spec["workloads"]]
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for seed in seeds:
        run_dir = out / f"seed-{seed}"
        for name in names:
            command = own_command(
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "1" if args.trace else "0",
                "--out", str(run_dir),
            )
            if args.smoke:
                command.append("--smoke")
            print(f"running {name} seed {seed}", file=sys.stderr)
            completed = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900)
            if completed.returncode:
                print(f"{name} exited {completed.returncode}", file=sys.stderr)
                return completed.returncode
            with open(run_dir / f"{name}.json", encoding="utf-8") as handle:
                runs[name].append(json.load(handle))
    results = {name: _aggregate(runs[name]) for name in names}
    with open(out / "results.json", "w", encoding="utf-8") as handle:
        json.dump({"workloads": results}, handle, indent=1, sort_keys=True)
    for name, summary in results.items():
        print(f"{name}: correct={summary['correct']} attempted={summary['attempted']}")
        for metric, entry in {**summary["metrics"], **summary.get("per_layer", {})}.items():
            print(
                f"  {metric:30s} {entry['value']:12.6g} "
                f"[{entry['q1']:.6g}, {entry['q3']:.6g}] {entry['unit']}"
            )
    return 0 if all(summary["correct"] for summary in results.values()) else 1


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Judge result set B against A; non-zero on any regression.

    A metric whose spread (quartile distance over median) in either set
    exceeds its bound is unresolved: the sets cannot show a change of
    that size either way.  Otherwise it regresses when B's median is
    worse than A's by more than its bound from BENCHMARK.json.
    ``fail_frac`` regresses on any increase.
    """
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    regressions = 0
    print(
        f"{'workload':18s} {'metric':14s} {'A':>12s} {'B':>12s} {'change':>8s} "
        f"{'spread':>7s} {'bound':>6s}  verdict"
    )
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload:18s} missing from {'A' if workload not in a else 'B'}")
            regressions += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            entry_a = a[workload]["metrics"][name]
            entry_b = b[workload]["metrics"][name]
            change = entry_b["value"] / entry_a["value"] - 1.0
            worse = change if metric["better"] == "lower" else -change
            spread = max(
                (entry["q3"] - entry["q1"]) / entry["value"] for entry in (entry_a, entry_b)
            )
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                regressions += 1
            else:
                verdict = "ok"
            print(
                f"{workload:18s} {name:14s} {entry_a['value']:12.6g} {entry_b['value']:12.6g} "
                f"{change:+8.1%} {spread:7.1%} {metric['bound']:6.0%}  {verdict}"
            )
        frac_a, frac_b = a[workload]["fail_frac"], b[workload]["fail_frac"]
        regressed = frac_b > frac_a
        regressions += regressed
        print(
            f"{workload:18s} {'fail_frac':14s} {frac_a:12.6g} {frac_b:12.6g} "
            f"{frac_b - frac_a:+8.1%} {'':7s} {0:6.0%}  {'REGRESSED' if regressed else 'ok'}"
        )
    return 1 if regressions else 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, needs --out)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add the traced iteration and print per-layer metrics",
    )
    parser.add_argument("--out", help="directory for result and trace files")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="judge results B against A")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    # Before numpy is first imported, here or in any child.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        if not args.out:
            raise SystemExit("give --workload, or --out to run every workload")
        return run_suite(args, spec)
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](seed=args.seed, smoke=args.smoke, jobs=JOBS)
        print(repr(time.time()))
        return 0
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    # Pool workers fork from this process and share its resource tracker.
    # Without one here, the first worker to create a shared-memory segment
    # starts a tracker of its own, which outlives the worker as an orphan
    # this process cannot wait for.  Stopping the tracker waits for it.
    resource_tracker.ensure_running()
    try:
        record = run_workload(args, spec)
    finally:
        resource_tracker._resource_tracker._stop()
    if args.out:
        with open(Path(args.out) / f"{args.workload}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    print(result_line(record, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
