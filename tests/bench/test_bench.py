# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for the benchmark harness: timing primitives, report schema,
suite payloads, the experiments suite, and the CLI's divergence gate."""

import hashlib
import json

import pytest

from repro.bench import SCHEMA_VERSION, SUITES, run_suite, time_callable, write_report
from repro.bench.cli import main as bench_main
from repro.bench.report import machine_info, report_path


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
    def test_decide_loops_payload_deterministic(self):
        first = run_suite("decide_loops", seed=1, quick=True, repeats=1)
        second = run_suite("decide_loops", seed=1, quick=True, repeats=1)
        assert first["checksum"] == second["checksum"]
        assert set(first["results"]) == {
            "iterative_d3",
            "progressive_k7",
            "traditional_k7",
        }

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("warp_drive")

    def test_scale_sharded_equals_unsharded_and_is_stable(self):
        payload = run_suite("scale", seed=1, quick=True, repeats=1)
        assert payload["diverged"] is False
        assert payload["serial_checksum"] == payload["parallel_checksum"]
        assert payload["checksum"] == payload["serial_checksum"]
        merged = payload["results"]["merged"]
        assert merged["tasks"] == payload["params"]["tasks"]
        assert merged["shards"] == payload["params"]["shards"]
        assert 0 < merged["reliability"] <= 1
        assert payload["results"]["tasks_per_second"] > 0
        # Quick runs gate on checksum identity only: sub-50ms timings are
        # noise, so they ride along ungated instead of in "timings".
        assert payload["timings"] == {}
        assert payload["results"]["timings_ungated"]
        again = run_suite("scale", seed=1, quick=True, repeats=1)
        assert payload["checksum"] == again["checksum"]

    @pytest.mark.parametrize("name", ["scale_churn", "scale_spot", "scale_deadline"])
    def test_regime_scale_suites_are_stable_and_converge(self, name):
        payload = run_suite(name, seed=1, quick=True, repeats=1)
        assert payload["diverged"] is False
        assert payload["serial_checksum"] == payload["parallel_checksum"]
        # Quick runs gate checksum identity only; timings ride ungated.
        assert payload["timings"] == {}
        assert "timings_ungated" in payload["results"]
        assert payload["below_des_floor"] is False
        assert payload["results"]["speedup_vs_des"] > 0
        merged = payload["results"]["merged"]
        if payload["params"]["transport"] == "shm":
            assert merged["columns"]["tasks"] == merged["tasks"]
        again = run_suite(name, seed=1, quick=True, repeats=1)
        assert again["checksum"] == payload["checksum"]

    def test_regime_scale_suites_carry_their_regime(self):
        churn = run_suite("scale_churn", seed=1, quick=True, repeats=1)
        merged = churn["results"]["merged"]
        assert merged["nodes_joined"] > 0
        assert merged["nodes_departed"] > 0
        spot = run_suite("scale_spot", seed=1, quick=True, repeats=1)
        assert spot["results"]["merged"]["spot_checks"] > 0
        deadline = run_suite("scale_deadline", seed=1, quick=True, repeats=1)
        merged = deadline["results"]["merged"]
        assert merged["tasks"] <= merged["tasks_submitted"]
        assert merged["makespan"] <= 6.0

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
        # The ceiling gates full-size runs only.
        assert payload["above_telemetry_ceiling"] is False
        # Checksum is over the bare run's metrics, which the suite asserts
        # equal across all three variants; same seed -> same checksum.
        again = run_suite("obs_overhead", seed=1, quick=True, repeats=1)
        assert payload["checksum"] == again["checksum"]

    def test_obs_overhead_full_size_run_is_held_under_the_ceiling(self, monkeypatch):
        from repro.bench import suites

        # No recorder halves the run time, so a ceiling of 0.5 must trip.
        monkeypatch.setattr(suites, "TELEMETRY_RATIO_CEILING", 0.5)
        payload = run_suite("obs_overhead", seed=1, repeats=1)
        assert payload["quick"] is False
        assert payload["above_telemetry_ceiling"] is True


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
            ["decide_loops", "sim_engine", "--quick", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("decide_loops", "sim_engine"):
            assert (tmp_path / f"BENCH_{name}.quick.json").exists()
            assert name in out

    def test_divergence_is_a_failure(self, tmp_path, capsys, monkeypatch):
        def fake_suite(**kwargs):
            return {
                "seed": 0,
                "checksum": "aa",
                "serial_checksum": "aa",
                "parallel_checksum": "bb",
                "diverged": True,
                "results": {},
            }

        monkeypatch.setitem(SUITES, "fake_sweep", fake_suite)
        code = bench_main(["fake_sweep", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "diverged" in capsys.readouterr().err

    def test_below_des_floor_is_a_failure(self, tmp_path, capsys, monkeypatch):
        def fake_suite(**kwargs):
            return {
                "seed": 0,
                "checksum": "aa",
                "diverged": False,
                "below_des_floor": True,
                "results": {"speedup_vs_des": 12.0},
            }

        monkeypatch.setitem(SUITES, "fake_scale", fake_suite)
        code = bench_main(["fake_scale", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "below the" in capsys.readouterr().err

    def test_above_telemetry_ceiling_is_a_failure(self, tmp_path, capsys, monkeypatch):
        def fake_suite(**kwargs):
            return {
                "seed": 0,
                "checksum": "aa",
                "above_telemetry_ceiling": True,
                "results": {"telemetry_recorder_ratio": 3.5},
            }

        monkeypatch.setitem(SUITES, "fake_obs", fake_suite)
        code = bench_main(["fake_obs", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "above the committed ceiling" in capsys.readouterr().err

    def test_unknown_suite_exits_two(self, capsys):
        assert bench_main(["warp_drive"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out

    def test_telemetry_flag_writes_a_capture(self, tmp_path, capsys):
        from repro.obs import Capture

        target = tmp_path / "cap.json"
        code = bench_main(
            [
                "decide_loops",
                "--quick",
                "--output-dir",
                str(tmp_path),
                "--telemetry",
                str(target),
            ]
        )
        assert code == 0
        assert "telemetry capture" in capsys.readouterr().out
        capture = Capture.load(target)
        assert capture.meta["label"] == "bench:dca_run"
        assert capture.metrics["dca.accept"]["series"][0]["value"] == 300
