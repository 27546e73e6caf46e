"""Shared value types for the redundancy library.

The paper's threat model (Section 2.2) reduces voting to two possible
result values -- the correct one and the single colluding wrong one -- but
Section 5.3 relaxes this to arbitrary result values with plurality voting.
:class:`VoteState` therefore tallies arbitrary hashable result values; the
binary worst case is simply the special case of two values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

#: A job's reported result.  Any hashable value; the binary Byzantine model
#: uses two distinct values (conventionally ``True`` for the correct answer
#: and ``False`` for the colluding wrong answer).
ResultValue = Hashable


@dataclass(frozen=True)
class JobOutcome:
    """What one job execution produced.

    Attributes:
        value: The reported result, or ``None`` if the node never reported
            (an unresponsive/timed-out node, treated as failed per §2.2).
        node_id: Identity of the node that ran the job (may be ``None`` in
            purely analytic settings).
        elapsed: Job latency in simulated time units, when known.
    """

    value: Optional[ResultValue]
    node_id: Optional[int] = None
    elapsed: Optional[float] = None

    @property
    def responded(self) -> bool:
        return self.value is not None


@dataclass
class VoteState:
    """The running vote for one task.

    Tracks how many jobs reported each result value plus how many timed out
    without reporting.  Strategies read this to decide whether to accept a
    result or dispatch more jobs.

    The paper's pseudocode (Figure 4) works with ``a`` (majority count) and
    ``b`` (minority count); :attr:`leader_count` and :attr:`runner_up_count`
    generalise those to any number of distinct values.
    """

    counts: Dict[ResultValue, int] = field(default_factory=dict)
    no_response: int = 0
    outstanding: int = 0
    #: Memoized :meth:`ranked` tuple; every decide call reads the leader,
    #: its count, and the runner-up count, which would otherwise re-sort
    #: the counts three times per vote on the hottest loop in the repo.
    _ranked_cache: Optional[Tuple[Tuple[ResultValue, int], ...]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def record(self, outcome: JobOutcome) -> None:
        """Fold one completed job into the vote."""
        self.record_value(outcome.value)

    def record_value(self, value: Optional[ResultValue]) -> None:
        """Fold one completed job's reported value (``None`` for a job
        that never reported) into the vote.

        Only the value reaches the vote, so substrates call this directly
        and build a :class:`JobOutcome` only for node-aware strategies.
        """
        if self.outstanding > 0:
            self.outstanding -= 1
        if value is None:
            self.no_response += 1
        else:
            counts = self.counts
            counts[value] = counts.get(value, 0) + 1
            self._ranked_cache = None

    def dispatched(self, n: int) -> None:
        """Note that ``n`` more jobs are now in flight."""
        if n < 0:
            raise ValueError("cannot dispatch a negative number of jobs")
        self.outstanding += n

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def responses(self) -> int:
        """Jobs that reported some value."""
        return sum(self.counts.values())

    @property
    def total_completed(self) -> int:
        """Jobs that finished, whether or not they reported a value."""
        return self.responses + self.no_response

    def ranked(self) -> Tuple[Tuple[ResultValue, int], ...]:
        """Result values sorted by descending count (ties by repr, for
        determinism).  Memoized until the next recorded vote."""
        ranked = self._ranked_cache
        if ranked is None:
            counts = self.counts
            if len(counts) == 2:
                # The binary model's only shape on the decide path: rank
                # it directly, calling repr only on an exact tie.  A stable
                # sort would keep insertion order on equal reprs too.
                first, second = counts.items()
                if first[1] > second[1] or (
                    first[1] == second[1] and repr(first[0]) <= repr(second[0])
                ):
                    ranked = (first, second)
                else:
                    ranked = (second, first)
            else:
                ranked = tuple(
                    sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
                )
            self._ranked_cache = ranked
        return ranked

    @property
    def leader(self) -> Optional[ResultValue]:
        """The value with the most votes, or ``None`` before any response.

        On an exact tie the deterministic ordering of :meth:`ranked`
        applies; strategies never *accept* on a tie, so this only matters
        for bookkeeping.
        """
        ranked = self.ranked()
        return ranked[0][0] if ranked else None

    @property
    def leader_count(self) -> int:
        """Votes held by the leading value (the paper's ``a``)."""
        ranked = self.ranked()
        return ranked[0][1] if ranked else 0

    @property
    def runner_up_count(self) -> int:
        """Votes held by the second-place value (the paper's ``b``).

        In the binary model this is the full minority count; with more than
        two values, the margin over the *runner-up* is the conservative
        quantity (any other value is even further behind).
        """
        ranked = self.ranked()
        return ranked[1][1] if len(ranked) > 1 else 0

    @property
    def margin(self) -> int:
        """``leader_count - runner_up_count`` (the paper's ``a - b``)."""
        ranked = self.ranked()
        if not ranked:
            return 0
        if len(ranked) > 1:
            return ranked[0][1] - ranked[1][1]
        return ranked[0][1]

    def copy(self) -> "VoteState":
        return VoteState(
            counts=dict(self.counts),
            no_response=self.no_response,
            outstanding=self.outstanding,
        )

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[ResultValue, int],
        *,
        no_response: int = 0,
        outstanding: int = 0,
    ) -> "VoteState":
        return cls(counts=dict(counts), no_response=no_response, outstanding=outstanding)

    @classmethod
    def binary(cls, agree: int, disagree: int) -> "VoteState":
        """A binary vote with ``agree`` votes for ``True`` and ``disagree``
        for ``False`` -- convenient in tests and analytic code."""
        counts: Dict[ResultValue, int] = {}
        if agree:
            counts[True] = agree
        if disagree:
            counts[False] = disagree
        return cls(counts=counts)


@dataclass(frozen=True)
class Decision:
    """A strategy's instruction to the task server.

    Exactly one of the two shapes:

    * ``Decision.dispatch(n)`` -- send ``n`` more jobs, then call the
      strategy again when they have completed;
    * ``Decision.accept(value)`` -- the vote is decided; ``value`` is the
      task's answer.
    """

    more_jobs: int = 0
    accepted: Optional[ResultValue] = None
    done: bool = False

    @classmethod
    def dispatch(cls, n: int) -> "Decision":
        """Send ``n`` more jobs.  Small counts return a shared instance
        (decisions are frozen), so a decide call builds no decision."""
        if n <= 0:
            raise ValueError(f"must dispatch a positive number of jobs, got {n}")
        if cls is Decision and type(n) is int and n < len(_DISPATCHES):
            return _DISPATCHES[n]
        return cls(more_jobs=n)

    @classmethod
    def accept(cls, value: ResultValue) -> "Decision":
        """Accept ``value``; the binary model's ``True``/``False`` return
        shared instances."""
        if cls is Decision:
            if value is True:
                return _ACCEPT_TRUE
            if value is False:
                return _ACCEPT_FALSE
        return cls(accepted=value, done=True)

    def __post_init__(self) -> None:
        if self.done and self.more_jobs:
            raise ValueError("a decision cannot both accept and dispatch")


#: Shared decisions returned by :meth:`Decision.dispatch` (index ``n``;
#: slot 0 is never handed out) and :meth:`Decision.accept`.
_DISPATCHES: Tuple[Decision, ...] = tuple(Decision(more_jobs=n) for n in range(64))
_ACCEPT_TRUE = Decision(accepted=True, done=True)
_ACCEPT_FALSE = Decision(accepted=False, done=True)


@dataclass(frozen=True)
class TaskVerdict:
    """The final record of one task's execution under a strategy.

    Attributes:
        value: The accepted result value.
        correct: Whether the accepted value equals the true answer (known
            only to the evaluation harness, never to the strategy).
        jobs_used: Total jobs dispatched for this task, including any that
            timed out and were replaced.
        waves: Number of dispatch rounds the strategy used.
        response_time: Simulated time from first dispatch to acceptance
            (``None`` in purely analytic settings).
    """

    value: ResultValue
    correct: Optional[bool]
    jobs_used: int
    waves: int
    response_time: Optional[float] = None
