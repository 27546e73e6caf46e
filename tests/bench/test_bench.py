"""Tests for the benchmark harness: timing primitives, report schema,
suite payloads, the experiments suite, the CLI, and the CI steps and
baselines that judge the suites."""

import hashlib
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.bench import SCHEMA_VERSION, SUITES, run_suite, time_callable, write_report
from repro.bench.cli import main as bench_main
from repro.bench.report import machine_info, report_path
from repro.bench.suites import TELEMETRY_RATIO_CEILING

ROOT = Path(__file__).resolve().parents[2]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
BASELINES = ROOT / "benchmarks" / "baselines"


def ci_step_script(name: str) -> str:
    """The inline Python of the CI step called ``name``."""
    text = WORKFLOW.read_text()
    step = text[text.index(f"- name: {name}\n"):]
    body = re.search(r"<<'EOF'\n(.*?)\n\s*EOF\n", step, re.S).group(1)
    return textwrap.dedent(body)


class TestTiming:
    def test_time_callable_counts_and_returns_value(self):
        calls = []

        def body():
            calls.append(1)
            return "value"

        stats, value = time_callable(body, repeats=3, warmup=2)
        assert value == "value"
        assert len(calls) == 5
        assert stats.repeats == 3
        assert 0 <= stats.best <= stats.mean <= stats.total

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestReport:
    def test_write_report_schema(self, tmp_path):
        path = write_report(
            "unit", {"seed": 0, "checksum": "abc"}, output_dir=tmp_path
        )
        assert path == report_path("unit", tmp_path)
        assert path.name == "BENCH_unit.json"
        document = json.loads(path.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["suite"] == "unit"
        assert document["seed"] == 0
        assert document["checksum"] == "abc"
        machine = document["machine"]
        assert machine["python"] and machine["cpu_count"] >= 1

    def test_machine_info_names_the_numpy_version(self):
        numpy = pytest.importorskip("numpy")
        assert machine_info()["numpy"] == numpy.__version__


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("warp_drive")

    def test_obs_overhead_gates_a_ratio_and_agrees_across_variants(self):
        payload = run_suite("obs_overhead", seed=1, quick=True, repeats=1)
        ratio = payload["timings"]["null_recorder_ratio"]["best_seconds"]
        assert ratio > 0
        results = payload["results"]
        assert set(results) >= {
            "bare",
            "null_recorder",
            "telemetry_recorder",
            "null_recorder_overhead",
            "telemetry_recorder_overhead",
            "telemetry_recorder_ratio",
        }
        assert results["telemetry_recorder_ratio"] == pytest.approx(
            results["telemetry_recorder_overhead"] + 1.0
        )
        # Checksum is over the bare run's metrics, which the suite asserts
        # equal across all three variants; same seed -> same checksum.
        again = run_suite("obs_overhead", seed=1, quick=True, repeats=1)
        assert payload["checksum"] == again["checksum"]

    def test_obs_overhead_full_size_run_is_held_under_the_ceiling(self, tmp_path):
        """CI's gate step holds the median of five full-size runs' full
        recorder ratio under the ceiling: two runs above it pass, three
        fail."""
        payload = run_suite("obs_overhead", repeats=1)
        assert payload["quick"] is False
        # Pin the NullRecorder ratio, which the same step judges at 2%.
        payload["timings"]["null_recorder_ratio"].update(
            best_seconds=1.0, mean_seconds=1.0, total_seconds=1.0
        )
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "baselines").symlink_to(BASELINES)
        script = ci_step_script("Gate the recorders' overhead on the median of the five runs")
        below, above = TELEMETRY_RATIO_CEILING - 0.1, TELEMETRY_RATIO_CEILING + 0.1

        def gate(ratios):
            paths = []
            for run, ratio in enumerate(ratios):
                payload["results"]["telemetry_recorder_ratio"] = ratio
                run_dir = tmp_path / f"run-{run}"
                paths.append(write_report("obs_overhead", payload, output_dir=run_dir))
            (tmp_path / "bench-reports" / "obs").mkdir(parents=True, exist_ok=True)
            return subprocess.run(
                [sys.executable, "-", *map(str, paths)],
                input=script,
                text=True,
                capture_output=True,
                cwd=tmp_path,
                env={"PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
                timeout=120,
            )

        held = gate([below, below, below, above, above])
        assert held.returncode == 0, held.stdout + held.stderr
        broken = gate([below, below, above, above, above])
        assert broken.returncode == 1, broken.stdout + broken.stderr
        assert "ABOVE" in broken.stdout


class TestExperimentsSuite:
    @pytest.fixture
    def two_experiments(self, monkeypatch):
        import repro.experiments as experiments

        chosen = {name: experiments.EXPERIMENTS[name] for name in ("figure3", "examples")}
        monkeypatch.setattr(experiments, "EXPERIMENTS", chosen)

    def test_quick_run_is_jobs_invariant_and_reports_each_experiment(self, two_experiments):
        from repro.experiments import examples_table, figure3
        from repro.parallel import fingerprint_of

        serial = run_suite("experiments", quick=True, jobs=1)
        parallel = run_suite("experiments", quick=True, jobs=2)
        assert serial["checksum"] == parallel["checksum"]
        assert (serial["jobs"], parallel["jobs"]) == (1, 2)
        assert serial["params"] == {"scale": "smoke", "experiments": ["figure3", "examples"]}
        digests = serial["results"]["digests"]
        assert serial["checksum"] == fingerprint_of(digests)
        # A digest covers exactly the bytes the CLI prints.
        for name, module in (("figure3", figure3), ("examples", examples_table)):
            printed = (module.main("smoke") + "\n").encode()
            assert digests[name] == hashlib.sha256(printed).hexdigest()
        # Quick runs gate the checksum only; timings ride ungated.
        assert serial["timings"] == {}
        timings = serial["results"]["timings_ungated"]
        assert list(timings) == ["figure3", "examples", "total"]
        assert timings["total"]["best_seconds"] == pytest.approx(
            timings["figure3"]["best_seconds"] + timings["examples"]["best_seconds"]
        )
        assert all(entry["repeats"] == 1 for entry in timings.values())

    def test_failing_experiment_is_named(self, monkeypatch):
        import repro.experiments as experiments

        monkeypatch.setattr(experiments, "EXPERIMENTS", {"warp_drive": None})
        with pytest.raises(RuntimeError, match="'warp_drive' exited 2") as info:
            run_suite("experiments", quick=True, jobs=1)
        assert "unknown experiment 'warp_drive'" in str(info.value)


class TestCli:
    def test_quick_run_writes_reports(self, tmp_path, capsys):
        code = bench_main(
            ["obs_overhead", "sim_engine", "--quick", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("obs_overhead", "sim_engine"):
            assert (tmp_path / f"BENCH_{name}.quick.json").exists()
            assert name in out

    def test_unknown_suite_exits_two(self, capsys):
        assert bench_main(["warp_drive"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out


class TestCiRunsEverySuite:
    """Every suite CI names exists, and every suite is run by some CI step:
    a retired suite must not linger in CI, nor an unrun suite hide."""

    def ci_suites(self):
        text = WORKFLOW.read_text()
        invocations = re.findall(r"-m repro\.bench((?:\s+[a-z_]+)+)", text)
        assert invocations, f"no 'python -m repro.bench' invocation in {WORKFLOW}"
        return {name for names in invocations for name in names.split()}

    def test_every_suite_ci_names_exists(self):
        assert self.ci_suites() <= set(SUITES)

    def test_every_suite_is_run_by_ci(self):
        assert set(SUITES) <= self.ci_suites()


def test_every_committed_baseline_names_a_suite():
    """A retired suite must not leave its baseline behind."""
    names = [path.name for path in BASELINES.iterdir()]
    assert names
    for name in names:
        match = re.fullmatch(r"BENCH_([a-z_]+?)(\.quick)?\.json", name)
        assert match and match.group(1) in SUITES, name
