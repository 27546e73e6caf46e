"""Capture round-trips, diffing, and the repro-obs CLI."""

import json

import pytest

from repro.obs import Capture, TelemetryRecorder, diff_captures, format_diff
from repro.obs.cli import main


def _capture(submits: int, makespan: float) -> Capture:
    recorder = TelemetryRecorder()
    recorder.count("dca.submit", submits)
    recorder.gauge("dca.makespan", makespan)
    recorder.observe("dca.response_time", makespan / 2)
    recorder.span("dca.task", 0, 0.0, makespan)
    return Capture.from_recorder(recorder, meta={"label": "unit"})


class TestCaptureRoundTrip:
    def test_save_load_preserves_content(self, tmp_path):
        capture = _capture(5, 12.0)
        path = capture.save(tmp_path / "cap.json")
        loaded = Capture.load(path)
        assert loaded.metrics == capture.metrics
        assert loaded.spans == capture.spans
        assert loaded.meta == capture.meta

    def test_foreign_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a telemetry capture"):
            Capture.load(path)

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps({"kind": "repro-obs-capture", "schema_version": 99})
        )
        with pytest.raises(ValueError, match="schema v99"):
            Capture.load(path)


class TestDiff:
    def test_deltas_per_series(self):
        rows = diff_captures(_capture(5, 12.0), _capture(8, 12.0))
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["dca.submit"]["delta"] == 3
        assert by_metric["dca.makespan"]["delta"] == 0

    def test_missing_series_counts_as_zero(self):
        a = _capture(5, 12.0)
        b = _capture(5, 12.0)
        b.metrics.pop("dca.submit")
        rows = diff_captures(a, b)
        row = next(r for r in rows if r["metric"] == "dca.submit")
        assert (row["a"], row["b"], row["delta"]) == (5, 0, -5)

    def test_histograms_diff_on_count(self):
        rows = diff_captures(_capture(5, 12.0), _capture(5, 12.0))
        row = next(r for r in rows if r["metric"] == "dca.response_time")
        assert row["kind"] == "histogram"
        assert row["delta"] == 0

    def test_format_only_changed_hides_zero_rows(self):
        rows = diff_captures(_capture(5, 12.0), _capture(8, 12.0))
        text = format_diff(rows, only_changed=True)
        assert "dca.submit" in text
        assert "dca.makespan" not in text


class TestCli:
    def test_summary(self, tmp_path, capsys):
        path = _capture(5, 12.0).save(tmp_path / "cap.json")
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "capture: unit" in out
        assert "dca.submit" in out

    def test_export_jsonl_to_stdout(self, tmp_path, capsys):
        path = _capture(5, 12.0).save(tmp_path / "cap.json")
        assert main(["export", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_export_chrome_to_file(self, tmp_path):
        path = _capture(5, 12.0).save(tmp_path / "cap.json")
        out = tmp_path / "trace.json"
        assert main(["export", str(path), "--format", "chrome", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_diff_reports_metric_deltas(self, tmp_path, capsys):
        a = _capture(5, 12.0).save(tmp_path / "a.json")
        b = _capture(9, 12.0).save(tmp_path / "b.json")
        assert main(["diff", str(a), str(b), "--only-changed"]) == 0
        out = capsys.readouterr().out
        assert "dca.submit" in out
        assert "+4" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.json")]) == 2
        assert "repro-obs:" in capsys.readouterr().err
