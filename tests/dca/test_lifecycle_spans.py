"""A DES run's job lifecycle as recorded spans and events, and the
per-task text timeline rendered from them."""

import re
from collections import Counter

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.dca import DcaConfig, run_dca
from repro.obs import Capture, TelemetryRecorder, task_timeline
from repro.obs.names import DCA_DECIDE_EVENT, DCA_JOB_SPAN, DCA_TASK_SPAN


def run_recorded(strategy, **overrides):
    defaults = dict(strategy=strategy, tasks=20, nodes=10, reliability=0.7, seed=2)
    defaults.update(overrides)
    recorder = TelemetryRecorder()
    report = run_dca(DcaConfig(**defaults), recorder=recorder)
    return report, recorder.as_payload()


def spans_named(payload, name):
    return [span for span in payload["spans"] if span["name"] == name]


class TestLifecycleSpans:
    def test_one_task_span_per_task(self):
        report, payload = run_recorded(TraditionalRedundancy(3))
        keys = [span["key"] for span in spans_named(payload, DCA_TASK_SPAN)]
        assert sorted(keys) == list(range(20))
        assert payload["open_spans"] == 0

    def test_job_spans_match_dispatch_counter(self):
        report, payload = run_recorded(IterativeRedundancy(3))
        assert len(spans_named(payload, DCA_JOB_SPAN)) == report.total_jobs_dispatched

    def test_complete_plus_timeout_equals_jobs_used(self):
        report, payload = run_recorded(
            TraditionalRedundancy(3), unresponsive_prob=0.2, timeout=5.0
        )
        outcomes = Counter(span["attrs"]["outcome"] for span in spans_named(payload, DCA_JOB_SPAN))
        assert outcomes["complete"] + outcomes["timeout"] == report.total_jobs
        assert outcomes["timeout"] == report.jobs_timed_out > 0

    def test_task_span_end_attrs_match_record(self):
        report, payload = run_recorded(IterativeRedundancy(2))
        by_task = {span["key"]: span for span in spans_named(payload, DCA_TASK_SPAN)}
        for record in report.records:
            attrs = by_task[record.task_id]["attrs"]
            assert attrs["jobs"] == record.jobs_used
            assert attrs["waves"] == record.waves

    def test_multi_wave_task_has_decide_events(self):
        report, payload = run_recorded(IterativeRedundancy(3), tasks=60)
        multi_wave = [record for record in report.records if record.waves > 1]
        assert multi_wave, "expected at least one multi-wave task at r=0.7"
        decided = {
            event["attrs"]["task"]
            for event in payload["events"]
            if event["name"] == DCA_DECIDE_EVENT
        }
        assert {record.task_id for record in multi_wave} <= decided


class TestTaskTimeline:
    def test_timeline_is_time_ordered_and_led_by_the_task_span(self):
        report, payload = run_recorded(IterativeRedundancy(2))
        text = task_timeline(payload["spans"], payload["events"], 5)
        header, *lines = text.splitlines()
        assert header == "task 5"
        rows = [re.match(r"\s+t=\s*(\S+)\s+(\S+)", line).groups() for line in lines]
        assert rows[0][1] == DCA_TASK_SPAN
        times = [float(time) for time, _ in rows]
        assert times == sorted(times)
        (record,) = [record for record in report.records if record.task_id == 5]
        assert [name for _, name in rows].count(DCA_JOB_SPAN) == record.jobs_used

    def test_renders_in_time_order_events_first_then_longest_span(self):
        spans = [
            {"name": DCA_JOB_SPAN, "key": 3, "start": 1.0, "end": 2.5,
             "attrs": {"task": 7, "node": 3, "outcome": "complete"}},
            {"name": DCA_TASK_SPAN, "key": 7, "start": 1.0, "end": 4.0,
             "attrs": {"task": 7, "jobs": 1, "waves": 2}},
            {"name": DCA_TASK_SPAN, "key": 8, "start": 0.0, "end": 1.0,
             "attrs": {"task": 8}},
            {"name": DCA_JOB_SPAN, "key": 4, "start": 2.5, "end": 4.0,
             "attrs": {"task": 7, "node": 4, "outcome": "timeout"}},
        ]
        events = [{"name": DCA_DECIDE_EVENT, "time": 2.5, "attrs": {"task": 7, "outstanding_more": 1}}]
        assert task_timeline(spans, events, 7).splitlines() == [
            "task 7",
            "  t=    1.0000  dca.task until t=4.0000 jobs=1 waves=2",
            "  t=    1.0000  dca.job until t=2.5000 node=3 outcome=complete",
            "  t=    2.5000  dca.decide outstanding_more=1",
            "  t=    2.5000  dca.job until t=4.0000 node=4 outcome=timeout",
        ]

    def test_enclosing_span_leads_a_tie(self):
        # The last job closes at the accept, just before its task span.
        spans = [
            {"name": DCA_JOB_SPAN, "key": 1, "start": 0.0, "end": 2.0, "attrs": {"task": 0}},
            {"name": DCA_TASK_SPAN, "key": 0, "start": 0.0, "end": 2.0, "attrs": {"task": 0}},
        ]
        assert [line.split()[2] for line in task_timeline(spans, [], 0).splitlines()[1:]] == [
            DCA_TASK_SPAN,
            DCA_JOB_SPAN,
        ]

    def test_unknown_task_renders_only_the_header(self):
        _, payload = run_recorded(TraditionalRedundancy(3))
        assert task_timeline(payload["spans"], payload["events"], 999) == "task 999"

    def test_capture_round_trip_renders_the_same_timeline(self, tmp_path):
        recorder = TelemetryRecorder()
        run_dca(
            DcaConfig(strategy=IterativeRedundancy(2), tasks=20, nodes=10, reliability=0.7, seed=2),
            recorder=recorder,
        )
        payload = recorder.as_payload()
        path = Capture.from_recorder(recorder, label="t").save(tmp_path / "capture.json")
        loaded = Capture.load(path)
        assert task_timeline(loaded.spans, loaded.events, 0) == task_timeline(
            payload["spans"], payload["events"], 0
        )
