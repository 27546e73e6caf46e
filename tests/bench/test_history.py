# reprolint: disable-file=RL003 -- history rows are pure functions of pinned inputs
"""Benchmark history (:mod:`repro.bench.history`): schema-versioned
JSONL rows, injected timestamps, and the ``--history`` CLI flag."""

import json
import os

from repro.bench.cli import main as bench_main
from repro.bench.history import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    current_git_sha,
    history_row,
    read_history,
)

PAYLOAD = {
    "seed": 3,
    "quick": True,
    "checksum": "abc123",
    "timings": {
        "serial": {"best_seconds": 0.5, "mean_seconds": 0.6},
        "parallel": {"best_seconds": 0.2, "mean_seconds": 0.3},
    },
    "wall_clock_seconds": 1.25,
}


class TestRow:
    def test_row_is_pure_and_schema_versioned(self):
        row = history_row("scale", PAYLOAD, timestamp="2026-08-08T00:00:00+00:00", git_sha="deadbeef")
        assert row == {
            "schema_version": HISTORY_SCHEMA_VERSION,
            "suite": "scale",
            "quick": True,
            "seed": 3,
            "checksum": "abc123",
            "best_seconds": {"serial": 0.5, "parallel": 0.2},
            "wall_clock_seconds": 1.25,
            "git_sha": "deadbeef",
            "timestamp": "2026-08-08T00:00:00+00:00",
        }

    def test_jobs_is_carried_when_reported(self):
        row = history_row("experiments", dict(PAYLOAD, jobs=2), timestamp="t", git_sha="s")
        assert row["jobs"] == 2
        assert "jobs" not in history_row("scale", PAYLOAD, timestamp="t", git_sha="s")

    def test_telemetry_ratio_and_nproc_are_carried_when_given(self):
        payload = dict(PAYLOAD, results={"telemetry_recorder_ratio": 1.31})
        row = history_row("obs_overhead", payload, timestamp="t", git_sha="s", nproc=2)
        assert (row["telemetry_recorder_ratio"], row["nproc"]) == (1.31, 2)
        row = history_row("scale", PAYLOAD, timestamp="t", git_sha="s")
        assert "telemetry_recorder_ratio" not in row and "nproc" not in row

    def test_timings_may_be_absent(self):
        row = history_row("x", {"seed": 0}, timestamp="t", git_sha="s")
        assert row["best_seconds"] == {}
        assert row["checksum"] is None


class TestAppend:
    def test_appends_one_line_per_call(self, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        first = append_history(path, "scale", PAYLOAD, timestamp="t1", git_sha="s1")
        second = append_history(path, "scale", PAYLOAD, timestamp="t2", git_sha="s1")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == first
        assert json.loads(lines[1]) == second

    def test_default_sha_and_timestamp_are_filled_in(self, tmp_path):
        row = append_history(tmp_path / "h.jsonl", "scale", PAYLOAD)
        assert row["git_sha"]
        assert "T" in row["timestamp"]

    def test_read_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, "scale", PAYLOAD, timestamp="t", git_sha="s")
        with path.open("a") as stream:
            stream.write('{"truncated": \n')
        append_history(path, "scale", PAYLOAD, timestamp="t2", git_sha="s")
        rows = read_history(path)
        assert [row["timestamp"] for row in rows] == ["t", "t2"]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []


class TestGitSha:
    def test_inside_this_repo_returns_a_sha(self):
        sha = current_git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_outside_a_repo_returns_unknown(self, tmp_path):
        assert current_git_sha(cwd=tmp_path) == "unknown"


class TestCliFlag:
    def test_history_flag_appends_rows(self, tmp_path):
        target = tmp_path / "history.jsonl"
        code = bench_main(
            [
                "decide_loops",
                "sim_engine",
                "--quick",
                "--output-dir",
                str(tmp_path),
                "--history",
                str(target),
            ]
        )
        assert code == 0
        rows = read_history(target)
        assert [row["suite"] for row in rows] == ["decide_loops", "sim_engine"]
        for row in rows:
            assert row["schema_version"] == HISTORY_SCHEMA_VERSION
            assert row["quick"] is True
            assert row["checksum"]
            assert row["wall_clock_seconds"] > 0
            assert row["nproc"] == os.cpu_count()
