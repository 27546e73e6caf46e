"""Unit tests for VoteState, Decision, and JobOutcome."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import Decision, JobOutcome, TaskVerdict, VoteState

#: Reported values, silences (None), and values that compare equal
#: across types (True == 1 == 1.0), which must share one vote count.
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.0, 1.0, "x", "y"]),
)


class TestVoteState:
    def test_empty_state(self):
        vote = VoteState()
        assert vote.leader is None
        assert vote.leader_count == 0
        assert vote.runner_up_count == 0
        assert vote.margin == 0
        assert vote.responses == 0

    def test_record_counts_values(self):
        vote = VoteState()
        for value in ["x", "x", "y"]:
            vote.record_value(value)
        assert vote.leader == "x"
        assert vote.leader_count == 2
        assert vote.runner_up_count == 1
        assert vote.margin == 1
        assert vote.responses == 3

    def test_no_response_tracked_separately(self):
        vote = VoteState()
        vote.record_value(None)
        vote.record_value("x")
        assert vote.no_response == 1
        assert vote.responses == 1
        assert vote.total_completed == 2

    def test_outstanding_decrements_on_record(self):
        vote = VoteState()
        vote.dispatched(3)
        assert vote.outstanding == 3
        vote.record_value("x")
        assert vote.outstanding == 2

    def test_dispatch_negative_rejected(self):
        with pytest.raises(ValueError):
            VoteState().dispatched(-1)

    def test_ranked_is_deterministic_on_ties(self):
        vote = VoteState.from_counts({"b": 2, "a": 2})
        assert vote.ranked() == (("a", 2), ("b", 2))
        assert vote.margin == 0

    def test_three_values_margin_uses_runner_up(self):
        vote = VoteState.from_counts({"x": 5, "y": 3, "z": 1})
        assert vote.leader == "x"
        assert vote.runner_up_count == 3
        assert vote.margin == 2

    def test_binary_constructor(self):
        vote = VoteState.binary(4, 2)
        assert vote.leader is True
        assert vote.leader_count == 4
        assert vote.runner_up_count == 2

    def test_binary_zero_counts_omitted(self):
        vote = VoteState.binary(3, 0)
        assert vote.counts == {True: 3}

    def test_copy_is_independent(self):
        vote = VoteState.binary(1, 0)
        clone = vote.copy()
        clone.record_value(False)
        assert vote.responses == 1
        assert clone.responses == 2


class TestRecordValueEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        dispatched=st.integers(0, 8),
        values=st.lists(_VALUES, max_size=20),
        node_ids=st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=20),
    )
    def test_record_value_matches_record_of_outcome(self, dispatched, values, node_ids):
        by_value, by_outcome = VoteState(), VoteState()
        by_value.dispatched(dispatched)
        by_outcome.dispatched(dispatched)
        for index, value in enumerate(values):
            node_id = node_ids[index] if index < len(node_ids) else None
            by_value.record_value(value)
            by_outcome.record(JobOutcome(value=value, node_id=node_id, elapsed=1.0))
            # Read between folds, so a stale ranked memo would show.
            assert by_value.ranked() == by_outcome.ranked()
        assert by_value == by_outcome
        assert list(by_value.counts.items()) == list(by_outcome.counts.items())
        assert by_value.no_response == by_outcome.no_response
        assert by_value.outstanding == by_outcome.outstanding


class TestDecision:
    def test_dispatch(self):
        d = Decision.dispatch(3)
        assert d.more_jobs == 3
        assert not d.done

    def test_accept(self):
        d = Decision.accept("value")
        assert d.done
        assert d.accepted == "value"
        assert d.more_jobs == 0

    def test_dispatch_zero_rejected(self):
        with pytest.raises(ValueError):
            Decision.dispatch(0)

    def test_cannot_accept_and_dispatch(self):
        with pytest.raises(ValueError):
            Decision(more_jobs=2, accepted="x", done=True)


class _SameRepr:
    """Distinct, unequal values whose reprs tie."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "same"


#: Hashable values whose pairs exercise every branch of the two-value
#: ranking: equal counts, equal reprs, reprs that order against the
#: insertion order.
_RANKED_VALUES = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.text(max_size=3),
    st.tuples(st.integers(0, 2), st.text(max_size=2)),
    st.builds(_SameRepr, st.integers(0, 3)),
)


class TestTwoValueRanking:
    """``ranked()`` on a two-value vote against the sorted ranking it replaced."""

    @staticmethod
    def _sorted_ranking(counts):
        return tuple(sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0]))))

    @settings(max_examples=300, deadline=None)
    @given(
        first=_RANKED_VALUES,
        second=_RANKED_VALUES,
        first_count=st.integers(1, 4),
        second_count=st.integers(1, 4),
    )
    def test_matches_sorted_ranking(self, first, second, first_count, second_count):
        counts = {first: first_count}
        if second in counts:
            return  # equal values share one count: not a two-value vote
        counts[second] = second_count
        vote = VoteState.from_counts(counts)
        assert vote.ranked() == self._sorted_ranking(counts)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_RANKED_VALUES, max_size=12))
    def test_matches_sorted_ranking_while_folding(self, values):
        vote = VoteState()
        for value in values:
            vote.record_value(value)
            assert vote.ranked() == self._sorted_ranking(vote.counts)

    def test_exact_tie_with_equal_reprs_keeps_insertion_order(self):
        a, b = _SameRepr(1), _SameRepr(2)
        assert VoteState.from_counts({a: 2, b: 2}).ranked() == ((a, 2), (b, 2))
        assert VoteState.from_counts({b: 2, a: 2}).ranked() == ((b, 2), (a, 2))

    def test_tie_breaks_by_repr(self):
        assert VoteState.from_counts({True: 1, False: 1}).ranked() == ((False, 1), (True, 1))


class TestSharedDecisions:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 200))
    def test_dispatch_equals_fresh(self, n):
        assert Decision.dispatch(n) == Decision(more_jobs=n)

    @settings(max_examples=100, deadline=None)
    @given(value=_RANKED_VALUES)
    def test_accept_equals_fresh(self, value):
        decision = Decision.accept(value)
        assert decision == Decision(accepted=value, done=True)
        assert decision.accepted is value

    def test_binary_decisions_are_shared(self):
        assert Decision.accept(True) is Decision.accept(True)
        assert Decision.accept(False) is Decision.accept(False)
        assert Decision.dispatch(3) is Decision.dispatch(3)

    def test_values_equal_to_booleans_keep_their_type(self):
        # 1 == True, but the accepted value must stay the int.
        assert type(Decision.accept(1).accepted) is int
        assert type(Decision.accept(0.0).accepted) is float

    @pytest.mark.parametrize("n", [0, -1, -100])
    def test_non_positive_dispatch_still_raises(self, n):
        with pytest.raises(ValueError):
            Decision.dispatch(n)

    def test_shared_decisions_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Decision.dispatch(2).more_jobs = 5  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            Decision.accept(True).accepted = False  # type: ignore[misc]


class TestJobOutcome:
    def test_responded_flag(self):
        assert JobOutcome(value="x").responded
        assert not JobOutcome(value=None).responded

    def test_frozen(self):
        outcome = JobOutcome(value="x", node_id=3)
        with pytest.raises(AttributeError):
            outcome.value = "y"


class TestTaskVerdict:
    def test_fields(self):
        verdict = TaskVerdict(value=True, correct=True, jobs_used=4, waves=1)
        assert verdict.jobs_used == 4
        assert verdict.response_time is None
