"""Tests of the end-to-end benchmark harness: ``pytest benchmarks/e2e``.

The smoke sizes run all four workloads, untraced and traced, in seconds.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as e2e

HERE = Path(__file__).resolve().parent
SPEC = e2e.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        **kwargs,
    )


@pytest.fixture(scope="module")
def smoke_sets(tmp_path_factory):
    """Untraced and traced smoke result sets, keyed by ``traced``."""
    sets = {}
    for traced in (False, True):
        out = tmp_path_factory.mktemp("traced" if traced else "untraced")
        args = ["--smoke", "--seed", "0", "--out", str(out)]
        done = _run(*args, *(["--trace"] if traced else []))
        assert done.returncode == 0, done.stderr
        results = json.loads((out / "results.json").read_text())
        sets[traced] = (out, results)
    return sets


def test_every_workload_runs_and_passes_its_checks(smoke_sets):
    for _, results in smoke_sets.values():
        assert sorted(results["workloads"]) == sorted(WORKLOADS)
        for name, summary in results["workloads"].items():
            assert summary["correct"], name
            assert summary["failed"] == 0
            assert summary["attempted"] >= 2
            assert summary["manifest"]["jobs"] <= os.cpu_count()


def test_exactly_the_declared_metrics_are_emitted(smoke_sets):
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    for traced, (_, results) in smoke_sets.items():
        for summary in results["workloads"].values():
            (record,) = summary["runs"]
            for emitted in (summary, record):
                assert set(emitted["metrics"]) == end_to_end
                assert all(entry["value"] > 0 for entry in emitted["metrics"].values())
                if traced:
                    assert set(emitted["per_layer"]) == per_layer
                else:
                    assert "per_layer" not in emitted


def test_names_are_valid():
    named = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [item["name"] for item in named]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert "setup_s" in names
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


def test_traced_run_writes_one_chrome_trace_per_workload(smoke_sets):
    out, results = smoke_sets[True]
    for name, summary in results["workloads"].items():
        (record,) = summary["runs"]
        trace = json.loads((out / "seed-0" / record["trace_file"]).read_text())
        spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
        assert "iteration" in {span["name"] for span in spans}, name
        ids = {span["args"]["id"] for span in spans}
        assert all(span["args"]["parent"] in ids | {None} for span in spans)
        assert trace["otherData"]["self_s"]["traced"]


def test_tracing_perturbs_no_draw(smoke_sets):
    untraced = smoke_sets[False][1]["workloads"]
    traced = smoke_sets[True][1]["workloads"]
    for name in WORKLOADS:
        assert untraced[name]["fingerprints"] == traced[name]["fingerprints"], name


def test_last_stdout_line_is_the_result_object(smoke_sets):
    done = _run(
        "--workload", "scale-columnar", "--seed", "1", "--seconds", "0.2",
        "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    (record,) = smoke_sets[True][1]["workloads"]["scale-columnar"]["runs"]
    traced = json.loads(e2e.result_line(record, trace=True))
    assert set(traced["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}


def _write(tmp_path, name, results):
    path = tmp_path / name
    path.write_text(json.dumps(results))
    return str(path)


def test_compare_flags_a_throughput_drop_and_new_failures(smoke_sets, tmp_path, capsys):
    base = smoke_sets[False][1]
    bound = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}["tasks_per_s"]

    def regressed_rows():
        return [
            line.split()[:2]
            for line in capsys.readouterr().out.splitlines()
            if line.endswith("REGRESSED")
        ]

    a = _write(tmp_path, "a.json", base)
    assert e2e.compare(a, a, SPEC) == 0
    assert regressed_rows() == []

    within = copy.deepcopy(base)
    within["workloads"]["des-contended"]["metrics"]["tasks_per_s"]["value"] *= 1 - bound + 0.05
    assert e2e.compare(a, _write(tmp_path, "within.json", within), SPEC) == 0
    assert regressed_rows() == []

    slower = copy.deepcopy(base)
    slower["workloads"]["des-contended"]["metrics"]["tasks_per_s"]["value"] *= 1 - bound - 0.05
    assert e2e.compare(a, _write(tmp_path, "slower.json", slower), SPEC) == 1
    assert regressed_rows() == [["des-contended", "tasks_per_s"]]

    # A set too noisy to resolve a change of the bound's size passes as
    # unresolved, not as a regression.
    noisy = copy.deepcopy(slower)
    entry = noisy["workloads"]["des-contended"]["metrics"]["tasks_per_s"]
    entry["q1"], entry["q3"] = 0.5 * entry["value"], 1.5 * entry["value"]
    assert e2e.compare(a, _write(tmp_path, "noisy.json", noisy), SPEC) == 0
    assert regressed_rows() == []

    failing = copy.deepcopy(base)
    failing["workloads"]["figure-sweep"]["fail_frac"] = 0.25
    assert e2e.compare(a, _write(tmp_path, "failing.json", failing), SPEC) == 1
    assert regressed_rows() == [["figure-sweep", "fail_frac"]]


def test_fails_without_the_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no src/ to run.
    shutil.copy(e2e.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "des-contended",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path, env=env,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


#: Runs a command as a child subreaper, so that any process the command
#: leaves behind is re-parented here; exits non-zero if one is.
_ADOPT_LEFTOVERS = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(0)
sys.exit("a process outlived the benchmark")
"""


@pytest.mark.skipif(sys.platform != "linux", reason="child subreapers are Linux-only")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_no_process_outlives_a_run(trace):
    done = subprocess.run(
        [sys.executable, "-c", _ADOPT_LEFTOVERS, sys.executable, str(HERE / "run.py"),
         "--workload", "regimes-columnar", "--seed", "0", "--seconds", "0.2",
         "--trace", trace, "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_files_lint_clean():
    env = {**os.environ, "PYTHONPATH": str(e2e.ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--project", "--flows", "--tensors",
         "--no-cache", str(HERE)],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
