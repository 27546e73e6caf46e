"""Recorder contract: null normalization, buffering, caps."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import DEFAULT_BOUNDARIES, NullRecorder, Recorder, TelemetryRecorder, active

#: Histogram values, often exactly on a bucket boundary.
_OBSERVED = st.one_of(
    st.sampled_from(DEFAULT_BOUNDARIES),
    st.integers(min_value=0, max_value=2_000),
    st.floats(min_value=-10.0, max_value=2_000.0, allow_nan=False),
)


def _bits(snapshot):
    """The snapshot with every histogram sum as its exact float bits."""
    for family in snapshot.values():
        for series in family["series"]:
            if "sum" in series:
                series["sum"] = float(series["sum"]).hex()
    return snapshot


class TestActive:
    def test_none_stays_none(self):
        assert active(None) is None

    def test_null_recorder_normalizes_to_none(self):
        assert active(NullRecorder()) is None

    def test_enabled_recorder_passes_through(self):
        recorder = TelemetryRecorder()
        assert active(recorder) is recorder


class TestNullRecorder:
    def test_every_method_is_a_noop(self):
        recorder = NullRecorder()
        recorder.event("e", 1.0)
        recorder.span("s", 1, 0.0, 2.0)
        recorder.declare_open_spans(3)
        recorder.count("c")
        recorder.gauge("g", 5)
        recorder.observe("h", 0.5)
        assert recorder.enabled is False


class TestTelemetryRecorder:
    def test_span_is_recorded_closed_with_its_attrs(self):
        recorder = TelemetryRecorder()
        recorder.span("job", 1, 0.0, 2.0, {"node": 1, "outcome": "complete"})
        recorder.span("job", 2, 0.5, 0.5)
        first, second = recorder.spans
        assert (first.name, first.key, first.start, first.end) == ("job", 1, 0.0, 2.0)
        assert first.attrs == {"node": 1, "outcome": "complete"}
        assert (second.start, second.end, second.attrs) == (0.5, 0.5, {})
        assert [span["unmatched"] for span in recorder.as_payload()["spans"]] == [False, False]

    def test_span_cap_drops_and_counts(self):
        recorder = TelemetryRecorder(max_spans=1)
        for key in (1, 2, 3):
            recorder.span("job", key, 0.0, 1.0, {"node": key} if recorder.keeps_spans else None)
        assert [(span.key, span.attrs) for span in recorder.spans] == [(1, {"node": 1})]
        assert recorder.dropped_spans == 2

    def test_keeps_spans_turns_false_at_the_cap(self):
        recorder = TelemetryRecorder(max_spans=2)
        for key in (1, 2):
            assert recorder.keeps_spans
            recorder.span("job", key, 0.0, 1.0)
        assert not recorder.keeps_spans
        assert TelemetryRecorder().keeps_spans
        assert not TelemetryRecorder(max_spans=0).keeps_spans

    def test_keeps_events_turns_false_at_the_cap(self):
        recorder = TelemetryRecorder(max_events=2)
        for i in range(2):
            assert recorder.keeps_events
            recorder.event("decide", float(i), {"task": i})
        assert not recorder.keeps_events
        recorder.event("decide", 2.0)
        assert recorder.dropped_events == 1
        assert [event.attrs for event in recorder.events] == [{"task": 0}, {"task": 1}]
        assert TelemetryRecorder().keeps_events
        assert not TelemetryRecorder(max_events=0).keeps_events

    def test_attrs_are_kept_without_a_copy(self):
        # The caller builds each attrs dict for its one call, so the
        # recorder stores it as is; the payload copies it on the way out.
        recorder = TelemetryRecorder()
        span_attrs, event_attrs = {"node": 1}, {"task": 1}
        recorder.span("job", 1, 0.0, 1.0, span_attrs)
        recorder.event("decide", 0.5, event_attrs)
        assert recorder.spans[0].attrs is span_attrs
        assert recorder.events[0].attrs is event_attrs
        payload = recorder.as_payload()
        assert payload["spans"][0]["attrs"] == span_attrs
        assert payload["spans"][0]["attrs"] is not span_attrs
        assert payload["events"][0]["attrs"] is not event_attrs

    def test_open_spans_is_the_latest_declaration(self):
        recorder = TelemetryRecorder(max_spans=0)
        assert recorder.open_spans == recorder.as_payload()["open_spans"] == 0
        recorder.declare_open_spans(5)
        recorder.declare_open_spans(2)
        recorder.span("job", 1, 0.0, 1.0)
        assert recorder.open_spans == recorder.as_payload()["open_spans"] == 2

    @pytest.mark.parametrize("cap", ["max_spans", "max_events"])
    @pytest.mark.parametrize(
        "value",
        [2.5, float("nan"), float("inf"), True, False, -1, "3"],
        ids=["fraction", "nan", "inf", "true", "false", "negative", "string"],
    )
    def test_caps_must_be_non_negative_integers(self, cap, value):
        # 2.5 was never reached (a count never equals it), NaN dropped
        # everything and True acted as 1.
        with pytest.raises(ValueError, match=cap):
            TelemetryRecorder(**{cap: value})

    def test_integer_caps_of_any_integral_type_are_accepted(self):
        import numpy as np

        recorder = TelemetryRecorder(max_spans=np.int64(1), max_events=0)
        recorder.span("job", 1, 0.0, 1.0)
        recorder.span("job", 2, 1.0, 2.0)
        recorder.event("e", 0.0)
        assert (len(recorder.spans), recorder.dropped_spans) == (1, 1)
        assert (len(recorder.events), recorder.dropped_events) == (0, 1)

    def test_event_cap_drops_and_counts(self):
        recorder = TelemetryRecorder(max_events=2)
        for i in range(5):
            recorder.event("decide", float(i))
        assert len(recorder.events) == 2
        assert recorder.dropped_events == 3

    def test_metrics_flow_into_registry(self):
        recorder = TelemetryRecorder()
        recorder.count("c", 3)
        recorder.gauge("g", 7)
        recorder.observe("h", 0.1)
        snap = recorder.registry.snapshot()
        assert snap["c"]["series"][0]["value"] == 3
        assert snap["g"]["series"][0]["value"] == 7
        assert snap["h"]["series"][0]["count"] == 1

    def test_equal_hashing_label_values_stay_distinct_series(self):
        # False == 0 == 0.0 and they hash alike, but they print apart, so
        # a memo keyed on raw label values would merge these series.
        recorder = TelemetryRecorder()
        for value, times in ((False, 1), (0, 2), (0.0, 3)):
            for _ in range(times):
                recorder.count("c", labels={"followup": value})
                recorder.observe("h", 1.0, labels={"followup": value})
        counter = recorder.registry.counter("c")
        histogram = recorder.registry.histogram("h")
        for value, times in ((False, 1), (0, 2), (0.0, 3)):
            assert counter.value({"followup": value}) == times
            assert histogram.count({"followup": value}) == times
        assert [entry["labels"] for entry in recorder.registry.snapshot()["c"]["series"]] == [
            {"followup": "0"},
            {"followup": "0.0"},
            {"followup": "False"},
        ]

    def test_label_order_does_not_split_a_series(self):
        recorder = TelemetryRecorder()
        recorder.count("c", labels={"a": 1, "b": 2})
        recorder.count("c", labels={"b": 2, "a": 1})
        assert recorder.registry.counter("c").value({"a": 1, "b": 2}) == 2

    def test_negative_increment_raises_on_the_cached_family(self):
        recorder = TelemetryRecorder()
        with pytest.raises(ValueError, match="cannot decrease"):
            recorder.count("c", -1)
        recorder.count("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            recorder.count("c", -1)
        assert recorder.registry.counter("c").value() == 1

    def test_one_name_one_kind_after_the_family_is_cached(self):
        recorder = TelemetryRecorder()
        recorder.count("m")
        recorder.count("m")
        with pytest.raises(ValueError, match="already registered"):
            recorder.gauge("m", 1)
        with pytest.raises(ValueError, match="already registered"):
            recorder.observe("m", 1.0)

    def test_payload_shape(self):
        recorder = TelemetryRecorder()
        recorder.span("s", 1, 0.0, 1.0)
        recorder.event("e", 0.5, {"k": "v"})
        recorder.count("c")
        payload = recorder.as_payload()
        assert sorted(payload) == [
            "dropped_events",
            "dropped_spans",
            "events",
            "metrics",
            "open_spans",
            "spans",
        ]
        assert payload["spans"][0]["name"] == "s"
        assert payload["events"][0]["attrs"] == {"k": "v"}


class TestObserveMany:
    def test_empty_values_record_nothing(self):
        recorder = TelemetryRecorder()
        recorder.observe_many("h", [])
        recorder.observe_many("h", (), labels={"followup": True})
        assert recorder.registry.snapshot() == {}

    @settings(max_examples=200, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.sampled_from([None, {"followup": False}, {"followup": True}]),
                st.lists(_OBSERVED, max_size=12),
            ),
            max_size=6,
        )
    )
    def test_equals_repeated_observe(self, batches):
        many, one_by_one = TelemetryRecorder(), TelemetryRecorder()
        for labels, values in batches:
            many.observe_many("h", values, labels)
            for value in values:
                one_by_one.observe("h", value, labels)
        assert _bits(many.registry.snapshot()) == _bits(one_by_one.registry.snapshot())


class TestBaseRecorder:
    def test_base_recorder_interface_is_noop(self):
        # The abstract base must be safe to call: adapters may override
        # only a subset of hooks.
        recorder = Recorder()
        recorder.count("c")
        recorder.event("e", 0.0)
        recorder.observe_many("h", [1.0, 2.0])
        recorder.span("s", 1, 0.0, 1.0)
        recorder.declare_open_spans(1)
        assert recorder.enabled is False
        assert recorder.keeps_spans and recorder.keeps_events
