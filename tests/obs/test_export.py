"""Exporter formats: JSONL lines, Chrome trace shape, Prometheus text."""

import json

import pytest

from repro.obs import (
    Capture,
    TelemetryRecorder,
    to_chrome_trace,
    to_chrome_trace_json,
    to_jsonl,
    to_prometheus,
)


@pytest.fixture()
def capture():
    recorder = TelemetryRecorder()
    recorder.span("dca.job", 1, 0.0, 2.5, {"node": 1, "outcome": "complete"})
    recorder.event("dca.decide", 1.25, {"outstanding_more": 0})
    recorder.count("dca.submit", 3)
    recorder.gauge("dca.makespan", 2.5)
    recorder.observe("dca.response_time", 2.5, labels={"strategy": "ir"})
    return Capture.from_recorder(
        recorder, meta={"label": "unit"}, label="iterative(d=3) x1"
    )


class TestJsonl:
    def test_every_line_is_json_with_a_type(self, capture):
        lines = to_jsonl(capture).strip().splitlines()
        records = [json.loads(line) for line in lines]
        types = [record["type"] for record in records]
        assert types[0] == "meta"
        assert {"metric", "span", "event"} <= set(types)

    def test_histogram_lines_carry_boundaries(self, capture):
        records = [json.loads(line) for line in to_jsonl(capture).strip().splitlines()]
        hist = [
            r for r in records if r["type"] == "metric" and r["name"] == "dca.response_time"
        ]
        assert hist and "boundaries" in hist[0]

    def test_deterministic(self, capture):
        assert to_jsonl(capture) == to_jsonl(capture)


class TestChromeTrace:
    def test_shape_contract(self, capture):
        doc = to_chrome_trace(capture)
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for entry in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(entry)
            if entry["ph"] == "X":
                assert "ts" in entry and "dur" in entry

    def test_span_durations_in_microseconds(self, capture):
        doc = to_chrome_trace(capture)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["ts"] == 0.0
        assert complete[0]["dur"] == pytest.approx(2.5e6)

    def test_process_metadata_names_the_run(self, capture):
        doc = to_chrome_trace(capture)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "iterative(d=3) x1"

    def test_json_form_parses_back(self, capture):
        doc = json.loads(to_chrome_trace_json(capture))
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["label"] == "unit"


class TestPrometheus:
    def test_type_lines_and_sanitized_names(self, capture):
        text = to_prometheus(capture)
        assert "# TYPE dca_submit counter" in text
        assert "dca_submit 3" in text
        assert "# TYPE dca_makespan gauge" in text

    def test_histogram_buckets_are_cumulative_and_capped_with_inf(self, capture):
        lines = to_prometheus(capture).splitlines()
        buckets = [l for l in lines if l.startswith("dca_response_time_bucket")]
        assert buckets[-1].startswith('dca_response_time_bucket{strategy="ir",le="+Inf"}')
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)
        assert 'dca_response_time_count{strategy="ir"} 1' in lines

    def test_deterministic(self, capture):
        assert to_prometheus(capture) == to_prometheus(capture)
