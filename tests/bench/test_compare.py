"""Tests for the baseline comparison gate (``repro-bench --compare``)."""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.compare import (
    compare_report,
    compare_to_baseline,
    format_comparison,
    median_report,
    paired_ratio_report,
)
from repro.bench.report import machine_info, report_path, write_report


def _payload(best=1.0, checksum="abc", seed=0, quick=True, params=None):
    return {
        "suite": "unit",
        "seed": seed,
        "quick": quick,
        "params": params if params is not None else {"tasks": 10},
        "timings": {
            "case": {
                "repeats": 1,
                "best_seconds": best,
                "mean_seconds": best,
                "total_seconds": best,
            }
        },
        "results": {},
        "checksum": checksum,
    }


class TestCompareReport:
    def test_ok_when_faster(self):
        comparison = compare_report(_payload(best=1.0), _payload(best=0.5))
        assert comparison["verdict"] == "ok"
        assert comparison["timings"]["case"]["speedup"] == pytest.approx(2.0)
        assert not comparison["timings"]["case"]["regressed"]

    def test_ok_within_tolerance(self):
        comparison = compare_report(
            _payload(best=1.0), _payload(best=1.10), tolerance=0.15
        )
        assert comparison["verdict"] == "ok"

    def test_regression_beyond_tolerance(self):
        comparison = compare_report(
            _payload(best=1.0), _payload(best=1.30), tolerance=0.15
        )
        assert comparison["verdict"] == "regression"
        assert comparison["timings"]["case"]["regressed"]
        assert any("regressed" in p for p in comparison["problems"])

    def test_checksum_mismatch_fails_regardless_of_speed(self):
        comparison = compare_report(
            _payload(best=1.0, checksum="abc"),
            _payload(best=0.1, checksum="DIFFERENT"),
        )
        assert comparison["verdict"] == "checksum_mismatch"
        assert comparison["timings"] == {}

    def test_checksum_mismatch_names_each_changed_digest(self):
        def experiments(figure5b):
            payload = _payload(checksum=figure5b)
            payload["results"] = {"digests": {"figure3": "d3", "figure5b": figure5b}}
            return payload

        comparison = compare_report(experiments("old"), experiments("new"))
        assert comparison["verdict"] == "checksum_mismatch"
        named = [p for p in comparison["problems"] if p.startswith("digest of")]
        assert named == ["digest of 'figure5b' differs: baseline=old current=new"]

    def test_params_mismatch_is_incomparable(self):
        comparison = compare_report(
            _payload(params={"tasks": 10}), _payload(params={"tasks": 99})
        )
        assert comparison["verdict"] == "incomparable"

    def test_quick_vs_full_is_incomparable(self):
        comparison = compare_report(_payload(quick=False), _payload(quick=True))
        assert comparison["verdict"] == "incomparable"

    def test_missing_timing_is_a_regression(self):
        current = _payload()
        current["timings"] = {}
        comparison = compare_report(_payload(), current)
        assert comparison["verdict"] == "regression"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_report(_payload(), _payload(), tolerance=-0.1)

    def test_format_comparison_mentions_verdict_and_speedup(self):
        text = format_comparison(compare_report(_payload(1.0), _payload(0.5)))
        assert "OK" in text
        assert "x2.00" in text


def _on(machine, payload):
    return {**payload, "machine": machine}


_BOX = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6", "platform": "a"}


class TestMachineMismatch:
    """A machine difference is reported in the verdict, never gated on."""

    def test_same_machine_reports_nothing(self):
        other_platform = dict(_BOX, platform="b")
        comparison = compare_report(_on(_BOX, _payload()), _on(other_platform, _payload()))
        assert comparison["machine_mismatch"] == []
        assert "machine differs" not in format_comparison(comparison)

    def test_cpu_count_difference_is_named_and_verdict_unchanged(self):
        comparison = compare_report(
            _on(dict(_BOX, cpu_count=1), _payload(best=1.0)),
            _on(_BOX, _payload(best=0.5)),
        )
        assert comparison["verdict"] == "ok"
        assert comparison["machine_mismatch"] == ["cpu_count 1 -> 2"]
        first_line = format_comparison(comparison).splitlines()[0]
        assert first_line == "unit: OK (machine differs: cpu_count 1 -> 2)"

    def test_baseline_without_numpy_shows_unknown(self):
        old = {key: value for key, value in _BOX.items() if key != "numpy"}
        comparison = compare_report(_on(old, _payload()), _on(_BOX, _payload()))
        assert comparison["machine_mismatch"] == ["numpy unknown -> 2.4.6"]

    def test_mismatch_does_not_loosen_a_regression(self):
        comparison = compare_report(
            _on(dict(_BOX, python="3.9.1"), _payload(best=1.0)),
            _on(_BOX, _payload(best=1.5)),
            tolerance=0.15,
        )
        assert comparison["verdict"] == "regression"
        assert comparison["machine_mismatch"] == ["python 3.9.1 -> 3.11.7"]
        assert "REGRESSION (machine differs: python" in format_comparison(comparison)

    def test_fresh_payload_is_judged_as_this_machine(self, tmp_path):
        write_report("unit", _payload(), output_dir=tmp_path)
        assert compare_to_baseline("unit", _payload(), tmp_path)["machine_mismatch"] == []
        path = report_path("unit", tmp_path, quick=True)
        document = json.loads(path.read_text())
        document["machine"]["cpu_count"] = -1
        del document["machine"]["numpy"]
        path.write_text(json.dumps(document))
        comparison = compare_to_baseline("unit", _payload(), tmp_path)
        here = machine_info()
        assert comparison["machine_mismatch"] == [
            f"cpu_count -1 -> {here['cpu_count']}",
            f"numpy unknown -> {here['numpy']}",
        ]


class TestCompareToBaseline:
    def test_missing_baseline_returns_none(self, tmp_path):
        assert compare_to_baseline("unit", _payload(), tmp_path) is None

    def test_round_trip_through_report_files(self, tmp_path):
        write_report("unit", _payload(best=1.0), output_dir=tmp_path)
        comparison = compare_to_baseline("unit", _payload(best=0.9), tmp_path)
        assert comparison is not None
        assert comparison["verdict"] == "ok"

    def test_quick_and_full_baselines_live_side_by_side(self, tmp_path):
        # Quick payloads route to BENCH_<name>.quick.json and full ones
        # to BENCH_<name>.json, so one baseline dir serves both quick
        # and full gates without ever comparing across sizes.
        quick_path = write_report("unit", _payload(quick=True), output_dir=tmp_path)
        full_path = write_report("unit", _payload(quick=False), output_dir=tmp_path)
        assert quick_path.name == "BENCH_unit.quick.json"
        assert full_path.name == "BENCH_unit.json"
        quick = compare_to_baseline("unit", _payload(quick=True), tmp_path)
        full = compare_to_baseline("unit", _payload(quick=False), tmp_path)
        assert quick is not None and quick["verdict"] == "ok"
        assert full is not None and full["verdict"] == "ok"

    def test_quick_current_skips_full_only_baseline(self, tmp_path):
        write_report("unit", _payload(quick=False), output_dir=tmp_path)
        assert compare_to_baseline("unit", _payload(quick=True), tmp_path) is None


class TestMedianReport:
    def test_timings_are_the_median_run(self):
        runs = [_payload(best=best) for best in (1.08, 1.0, 1.04, 1.01, 1.3)]
        median = median_report(runs)
        assert median["timings"]["case"] == {
            "repeats": 1,
            "best_seconds": 1.04,
            "mean_seconds": 1.04,
            "total_seconds": 1.04,
        }
        assert median["runs"] == 5
        assert runs[0]["timings"]["case"]["best_seconds"] == 1.08

    def test_one_noisy_run_does_not_fail_the_gate(self, tmp_path):
        # A 2% gate on a ratio whose single runs read up to 8% above the
        # baseline on a busy host: the median of five holds it.
        write_report("unit", _payload(best=1.0), output_dir=tmp_path)

        def verdict(report):
            return compare_to_baseline("unit", report, tmp_path, tolerance=0.02)["verdict"]

        runs = [_payload(best=best) for best in (1.081, 1.0, 1.04, 1.0, 1.01)]
        assert verdict(runs[0]) == "regression"
        assert verdict(median_report(runs)) == "ok"
        slow = [_payload(best=best) for best in (1.081, 1.03, 1.04, 1.0, 1.05)]
        assert verdict(median_report(slow)) == "regression"

    @pytest.mark.parametrize(
        "other",
        [_payload(checksum="zzz"), _payload(seed=1), _payload(quick=False), _payload(params={})],
        ids=["checksum", "seed", "size", "params"],
    )
    def test_runs_that_differ_are_rejected(self, other):
        with pytest.raises(ValueError, match="runs differ"):
            median_report([_payload(), other])

    def test_no_runs_is_an_error(self):
        with pytest.raises(ValueError, match="at least one"):
            median_report([])


class TestPairedRatioReport:
    # Host speed that swings 2x between rounds, as a busy 2-vCPU host's does.
    HOST = (0.3, 0.6, 0.31, 0.55, 0.29, 0.62, 0.3)

    def judge(self, slowdown, **current):
        baselines = [_payload(best=host) for host in self.HOST]
        currents = [_payload(best=host * slowdown, **current) for host in self.HOST]
        return compare_report(*paired_ratio_report(baselines, currents))

    def test_drift_shared_by_both_sides_cancels(self):
        comparison = self.judge(1.0)
        assert comparison["verdict"] == "ok"
        assert comparison["timings"]["case"]["baseline_best_seconds"] == 1.0
        assert comparison["timings"]["case"]["current_best_seconds"] == pytest.approx(1.0)

    def test_a_slowdown_in_every_round_beyond_tolerance_regresses(self):
        assert self.judge(1.10)["verdict"] == "ok"
        comparison = self.judge(1.30)
        assert comparison["verdict"] == "regression"
        assert comparison["timings"]["case"]["speedup"] == pytest.approx(1 / 1.30)

    def test_one_round_where_the_host_slowed_mid_round_does_not_fail(self):
        # The host slowed between the two runs of round 2: the medians of
        # each side's seconds read 2x apart, the median paired ratio 1.0.
        baselines = [_payload(best=best) for best in (0.3, 0.3, 0.3, 0.6, 0.6)]
        currents = [_payload(best=best) for best in (0.3, 0.3, 0.6, 0.6, 0.6)]
        unpaired = compare_report(median_report(baselines), median_report(currents))
        assert unpaired["verdict"] == "regression"
        assert compare_report(*paired_ratio_report(baselines, currents))["verdict"] == "ok"

    def test_changed_suite_is_incomparable_and_changed_results_mismatch(self):
        assert self.judge(1.0, params={"tasks": 20})["verdict"] == "incomparable"
        assert self.judge(1.0, checksum="zzz")["verdict"] == "checksum_mismatch"

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError, match="one current run per baseline run"):
            paired_ratio_report([_payload()], [_payload(), _payload()])


class TestCliGate:
    """End-to-end: the CLI exit codes CI relies on."""

    def test_compare_ok_exits_zero_and_writes_artifact(self, tmp_path, capsys):
        from repro.bench.suites import run_suite

        baseline_dir = tmp_path / "baselines"
        baseline = run_suite("sim_engine", seed=3, quick=True, repeats=1)
        baseline["timings"] = {
            name: {**stats, "best_seconds": stats["best_seconds"] * 100}
            for name, stats in baseline["timings"].items()
        }
        write_report("sim_engine", baseline, output_dir=baseline_dir)
        out_dir = tmp_path / "out"
        code = bench_main(
            [
                "sim_engine",
                "--quick",
                "--seed",
                "3",
                "--compare",
                str(baseline_dir),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        artifact = json.loads((out_dir / "BENCH_comparison.json").read_text())
        assert artifact["comparisons"][0]["verdict"] == "ok"

    def test_compare_checksum_mismatch_exits_nonzero(self, tmp_path, capsys):
        from repro.bench.suites import run_suite

        baseline_dir = tmp_path / "baselines"
        baseline = run_suite("sim_engine", seed=3, quick=True, repeats=1)
        baseline["checksum"] = "0" * 64
        write_report("sim_engine", baseline, output_dir=baseline_dir)
        code = bench_main(
            [
                "sim_engine",
                "--quick",
                "--seed",
                "3",
                "--compare",
                str(baseline_dir),
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "checksum_mismatch" in captured.err

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        from repro.bench.suites import run_suite

        baseline_dir = tmp_path / "baselines"
        baseline = run_suite("sim_engine", seed=3, quick=True, repeats=1)
        # An impossibly fast baseline: any real run regresses against it.
        baseline["timings"] = {
            name: {**stats, "best_seconds": 1e-9}
            for name, stats in baseline["timings"].items()
        }
        write_report("sim_engine", baseline, output_dir=baseline_dir)
        code = bench_main(
            [
                "sim_engine",
                "--quick",
                "--seed",
                "3",
                "--compare",
                str(baseline_dir),
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "regression" in captured.err

    def test_missing_baseline_is_not_a_failure(self, tmp_path, capsys):
        code = bench_main(
            [
                "sim_engine",
                "--quick",
                "--seed",
                "3",
                "--compare",
                str(tmp_path / "empty"),
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "no baseline" in capsys.readouterr().out

    def test_profile_smoke(self, tmp_path, capsys):
        code = bench_main(
            [
                "sim_engine",
                "--quick",
                "--profile",
                "5",
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "profile: sim_engine" in captured.out
        assert "cumulative" in captured.out
