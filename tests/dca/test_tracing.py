"""Tests for job-lifecycle tracing."""

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.dca import DcaConfig, DcaSimulation
from repro.dca.tracing import (
    ACCEPT,
    COMPLETE,
    DECIDE,
    DISPATCH,
    SUBMIT,
    TIMEOUT,
    TraceEvent,
    TraceLog,
    instrument_server,
)
from repro.obs import TelemetryRecorder


def run_traced(strategy, capacity=None, **overrides):
    defaults = dict(strategy=strategy, tasks=20, nodes=10, reliability=0.7, seed=2)
    defaults.update(overrides)
    simulation = DcaSimulation(DcaConfig(**defaults))
    log = instrument_server(simulation.server, TraceLog(capacity=capacity))
    report = simulation.run()
    return report, log


class TestTraceEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(0.0, "explode", 1)


class TestTraceLog:
    def test_record_and_len(self):
        log = TraceLog()
        log.record(TraceEvent(1.0, SUBMIT, 0))
        assert len(log) == 1

    def test_capacity_drops_oldest(self):
        log = TraceLog(capacity=2)
        for i in range(5):
            log.record(TraceEvent(float(i), SUBMIT, i))
        assert len(log) == 2
        assert log.dropped == 3
        assert [e.task_id for e in log] == [3, 4]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)

    def test_filter_by_kind_task_and_window(self):
        log = TraceLog()
        log.record(TraceEvent(1.0, SUBMIT, 0))
        log.record(TraceEvent(2.0, DISPATCH, 0, {"node": 1}))
        log.record(TraceEvent(3.0, DISPATCH, 1, {"node": 2}))
        assert len(log.filter(kind=DISPATCH)) == 2
        assert len(log.filter(task_id=0)) == 2
        assert len(log.filter(since=2.5)) == 1
        assert len(log.filter(until=1.5)) == 1
        assert len(log.filter(kind=DISPATCH, task_id=1)) == 1


class TestInstrumentedRuns:
    def test_every_task_has_submit_and_accept(self):
        report, log = run_traced(TraditionalRedundancy(3))
        counts = log.counts()
        assert counts[SUBMIT] == 20
        assert counts[ACCEPT] == 20

    def test_dispatch_count_matches_server_counter(self):
        report, log = run_traced(IterativeRedundancy(3))
        assert log.counts()[DISPATCH] == report.total_jobs_dispatched

    def test_complete_plus_timeout_equals_jobs_used(self):
        report, log = run_traced(
            TraditionalRedundancy(3), unresponsive_prob=0.2, timeout=5.0
        )
        counts = log.counts()
        total = counts.get(COMPLETE, 0) + counts.get(TIMEOUT, 0)
        assert total == report.total_jobs
        assert counts.get(TIMEOUT, 0) == report.jobs_timed_out

    def test_timeline_is_ordered_and_ends_with_accept(self):
        report, log = run_traced(IterativeRedundancy(2))
        timeline = log.timeline(5)
        assert timeline[0].kind == SUBMIT
        assert timeline[-1].kind == ACCEPT
        times = [event.time for event in timeline]
        assert times == sorted(times)

    def test_multi_wave_task_has_decide_events(self):
        report, log = run_traced(IterativeRedundancy(3), tasks=60)
        multi_wave = [r for r in report.records if r.waves > 1]
        assert multi_wave, "expected at least one multi-wave task at r=0.7"
        record = multi_wave[0]
        timeline = log.timeline(record.task_id)
        assert any(event.kind == DECIDE for event in timeline)

    def test_accept_detail_matches_record(self):
        report, log = run_traced(IterativeRedundancy(2))
        for record in report.records[:5]:
            accepts = log.filter(kind=ACCEPT, task_id=record.task_id)
            assert len(accepts) == 1
            assert accepts[0].detail["jobs"] == record.jobs_used
            assert accepts[0].detail["waves"] == record.waves

    def test_render_timeline(self):
        report, log = run_traced(TraditionalRedundancy(3))
        text = log.render(0)
        assert text.startswith("task 0")
        assert "submit" in text
        assert "accept" in text


class TestTeeWithCappedTelemetry:
    """A full span cap stops the server building job-span attrs only while
    no recorder in the tee still keeps them: the trace log sees them all."""

    @staticmethod
    def _events(recorder):
        config = DcaConfig(
            strategy=IterativeRedundancy(2),
            tasks=30,
            nodes=8,
            reliability=0.7,
            seed=5,
            unresponsive_prob=0.1,
        )
        simulation = DcaSimulation(config, recorder=recorder)
        log = instrument_server(simulation.server, TraceLog())
        simulation.run()
        return [(e.time, e.kind, e.task_id, e.detail) for e in log]

    def test_trace_log_unchanged_by_telemetry_cap(self):
        capped = TelemetryRecorder(max_spans=3)
        events = self._events(capped)
        assert not capped.keeps_spans and capped.dropped_spans > 0
        assert events == self._events(None)
        assert any(kind == COMPLETE and "value" in detail for _, kind, _, detail in events)
        assert any(kind == TIMEOUT and "node" in detail for _, kind, _, detail in events)
