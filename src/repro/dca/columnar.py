"""Columnar wave-batched DCA engine for million-task runs.

The object-per-job DES (:mod:`repro.dca.simulation`) tops out around a
few thousand tasks per second: every job is a Python object, every vote a
dict update, every completion a heap event.  This module replaces that
churn with struct-of-arrays state -- one numpy column per task for the
``True``/``False`` tallies, silent counts, wave clocks, and jobs used --
and advances *all* active tasks one wave at a time.

The model is the paper's own analysis regime:

* **Assumption 1 (contention-free pool):** every wave's jobs run on
  independent random nodes concurrently, so a task's wave completes at
  the slowest of its jobs and the next wave starts immediately.  Node
  contention delays *when* jobs run, never *what* they report, so
  reliability, cost factor, and wave counts are exactly those of the
  DES; response times and makespan are the contention-free values.
* **Assumption 4 (binary votes):** the colluding-Byzantine worst case,
  :class:`~repro.dca.failures.ByzantineCollusion`, where each task has
  one true and one colluding wrong value.  Tallies are two int columns.

Beyond the contention-free core, the engine covers the paper's fault
regimes (Figures 5b/5c/6):

* **Churn** keeps a struct-of-arrays node pool (reliability, speed, and
  stable id columns) and applies Poisson departure/arrival batches at
  wave boundaries: the global *frontier* clock advances by each wave's
  maximum span, and the next wave's node draws see the compacted pool.
  This is a wave-boundary model of the DES's continuous churn -- a node
  cannot quit *mid-job* here (in the DES that job times out), so churn
  results match the DES statistically, not byte-for-byte.
* **Spot-checks** divert assignments to known-answer jobs exactly like
  :class:`~repro.dca.taskserver.TaskServer` (each assignment attempt
  draws the gate again, so one slot can divert repeatedly), drawing
  everything spot-related from a dedicated stream so real task outcomes
  are untouched.  Per-node pass/fail tallies accumulate in grow-only
  columns and a node with any failed check counts as blacklisted,
  mirroring :meth:`~repro.core.credibility.CredibilityManager.spot_check`.
  Unlike the DES, tallies are not cut off by the end-of-run
  ``StopSimulation`` (a shutdown artifact, not model semantics).
* **``max_time`` horizons** compare wave-end clocks against the
  deadline: a wave whose slowest job lands past the horizon is
  truncated -- its dispatches count (the DES enqueues them before the
  horizon) but the task never completes, contributes no timeouts (its
  deadline events fire past the horizon), and is excluded from the
  per-task aggregates, exactly like an unfinished DES task.

Strategy decisions stay behind the existing interfaces: the built-in
strategies (iterative, progressive, traditional, complex-iterative) have
vectorised deciders that replay their ``decide(VoteState)`` arithmetic
over whole columns, and any other non-node-aware strategy falls back to
a per-task loop through a real :class:`~repro.core.types.VoteState` --
slower, but semantically the strategy's own code.

Each wave runs as phases over one run state: churn step, job draws, spot
gate, segment reductions, horizon cut, fold, and decide/retire.  The
per-task columns hold only the active tasks, in task order, so a wave is
contiguous in-place work; finished tasks fold into exact integer tallies
and are cut away once.  Vote tallies and job counts are int32 (a run
that would pass that range is refused before it draws), task ids stay
``intp`` because numpy scatters by them.  A report-only run keeps just
two per-task columns past retirement, the response times and a
completion mask; :func:`run_columnar_dca_columns` alone also keeps what
it exports.  The regime kernels (``_pool_compact``,
``_spot_tally``, ``_horizon_cut``) are plain functions the phases call;
the tests check each against a scalar oracle.

Configurations outside the regime (node-aware strategies, non-binary
failure models) are rejected with :class:`ColumnarUnsupported`; use the
DES for those.

Determinism: all draws come from seeded numpy generators whose seeds
derive from the config seed via :class:`~repro.sim.rng.RngRegistry`
spawn names, so same-config runs are byte-identical (given a numpy
version) and the columnar engine never perturbs the DES streams.  Spawn
seeds are stateless hashes of their names, so the ``churn`` and
``spot-checks`` streams never perturb the four legacy streams either: a
no-churn, no-spot-check run draws exactly what it always drew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

try:  # gated: the container/CI images ship numpy, but it stays optional
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from repro.core.iterative import IterativeRedundancy
from repro.core.iterative_complex import ComplexIterativeRedundancy
from repro.core.progressive import ProgressiveRedundancy
from repro.core.runner import WaveLimitExceeded
from repro.core.strategy import RedundancyStrategy, is_node_aware
from repro.core.traditional import TraditionalRedundancy
from repro.core.types import VoteState
from repro.dca.config import DcaConfig
from repro.dca.failures import ByzantineCollusion
from repro.obs.names import (
    DCA_ACCEPTS,
    DCA_DISPATCHES,
    DCA_MAKESPAN,
    DCA_SPOT_CHECKS,
    DCA_SUBMITS,
    DCA_TIMEOUTS,
)
from repro.obs.recorder import Recorder
from repro.obs.recorder import active as active_recorder
from repro.sim.rng import RngRegistry


class ColumnarUnsupported(ValueError):
    """The configuration falls outside the columnar engine's regime."""


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - exercised only without numpy
        raise RuntimeError(
            "the columnar engine needs numpy; install it or use repro.dca.run_dca"
        )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnarReport:
    """Aggregated results of one columnar run.

    Mirrors the Section 4.1 measures of :class:`~repro.dca.report.DcaReport`
    (and its :meth:`as_dict` keys exactly), but holds aggregates instead
    of a million per-task records.  Per-task means cover *completed*
    tasks only, matching the DES report's records-based aggregation;
    under a ``max_time`` horizon ``tasks_completed`` can fall short of
    ``tasks_submitted`` and the means are ``nan`` when nothing finished.
    """

    strategy: str
    tasks_submitted: int
    tasks_completed: int
    tasks_correct: int
    total_jobs: int
    max_jobs_per_task: int
    mean_response_time: float
    max_response_time: float
    mean_waves: float
    makespan: float
    jobs_timed_out: int
    seed: int
    spot_checks: int = 0
    nodes_blacklisted: int = 0
    nodes_joined: int = 0
    nodes_departed: int = 0

    @property
    def system_reliability(self) -> float:
        if not self.tasks_completed:
            return math.nan
        return self.tasks_correct / self.tasks_completed

    @property
    def cost_factor(self) -> float:
        if not self.tasks_completed:
            return math.nan
        return self.total_jobs / self.tasks_completed

    def as_dict(self) -> Dict[str, float]:
        """Flat dict with the same keys as :meth:`DcaReport.as_dict`."""
        return {
            "strategy": self.strategy,
            "tasks": self.tasks_completed,
            "reliability": self.system_reliability,
            "cost_factor": self.cost_factor,
            "max_jobs": self.max_jobs_per_task,
            "mean_response_time": self.mean_response_time,
            "max_response_time": self.max_response_time,
            "mean_waves": self.mean_waves,
            "makespan": self.makespan,
        }

    def summary(self) -> str:
        lines = [
            f"strategy                {self.strategy}",
            f"tasks completed         {self.tasks_completed} / {self.tasks_submitted}",
            f"time to complete        {self.makespan:.2f}",
            f"total jobs              {self.total_jobs}",
            f"avg jobs per task       {self.cost_factor:.3f}",
            f"max jobs for any task   {self.max_jobs_per_task}",
            f"tasks correct           {self.tasks_correct}"
            f"  (system reliability {self.system_reliability:.4f})",
            f"avg response time       {self.mean_response_time:.3f}",
            f"max response time       {self.max_response_time:.3f}",
        ]
        if self.jobs_timed_out:
            lines.append(f"jobs timed out          {self.jobs_timed_out}")
        if self.spot_checks:
            lines.append(f"spot checks issued      {self.spot_checks}")
            lines.append(f"nodes blacklisted       {self.nodes_blacklisted}")
        if self.nodes_joined or self.nodes_departed:
            lines.append(
                f"churn                   +{self.nodes_joined} / -{self.nodes_departed}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Vectorised deciders
# ---------------------------------------------------------------------------

#: decider(strategy, true_votes, false_votes) ->
#:     (accept_mask, accepted_is_true, more_jobs)
#: All three outputs are columns over the active tasks; ``more_jobs`` is
#: only meaningful where ``accept_mask`` is False.
_Decider = Callable[[RedundancyStrategy, "np.ndarray", "np.ndarray"], Tuple]

_DECIDERS: Dict[Type[RedundancyStrategy], _Decider] = {}


def _decider(cls: Type[RedundancyStrategy]):
    def register(fn: _Decider) -> _Decider:
        _DECIDERS[cls] = fn
        return fn

    return register


@_decider(IterativeRedundancy)
def _decide_iterative(strategy, a, b):
    # decide(): accept when |a - b| >= d (with any response); else
    # dispatch d - margin (a full d when every job so far was silent).
    margin = np.abs(a - b)
    accept = (margin >= strategy.d) & ((a + b) > 0)
    return accept, a > b, strategy.d - margin


@_decider(ProgressiveRedundancy)
def _decide_progressive(strategy, a, b):
    # decide(): accept once one value holds the consensus; else dispatch
    # the leader's deficit (ties lead with the False value, matching
    # VoteState.ranked()'s repr ordering, but the deficit is the same).
    leader = np.maximum(a, b)
    accept = leader >= strategy.consensus
    return accept, a > b, strategy.consensus - leader


@_decider(TraditionalRedundancy)
def _decide_traditional(strategy, a, b):
    # decide(): re-issue silent jobs until k responses, then majority (k
    # odd, binary model: the plurality leader is the majority).
    responses = a + b
    accept = responses >= strategy.k
    return accept, a > b, strategy.k - responses


@_decider(ComplexIterativeRedundancy)
def _decide_complex(strategy, a, b):
    # decide(): accept when leader - runner_up >= d(r, R, 0); else
    # dispatch max(1, d0 + runner_up) - leader (a full max(1, d0) when
    # no job has responded yet).
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    d0 = strategy._required_margin
    responded = (a + b) > 0
    accept = responded & ((hi - lo) >= d0)
    more = np.where(responded, np.maximum(1, d0 + lo) - hi, max(1, d0))
    return accept, a > b, more


def _decide_fallback(strategy, a, b):
    """Per-task decide through a real :class:`VoteState`.

    The escape hatch for strategies without a vectorised decider: build
    each active task's binary vote and let the strategy's own
    ``decide()`` run.  O(active tasks) Python per wave, but the columnar
    tallies stay the single source of truth.
    """
    accept = np.zeros(a.shape[0], dtype=bool)
    value = np.zeros(a.shape[0], dtype=bool)
    more = np.zeros(a.shape[0], dtype=np.int64)
    for i in range(a.shape[0]):
        vote = VoteState.binary(int(a[i]), int(b[i]))
        decision = strategy.decide(vote)
        if decision.done:
            accept[i] = True
            value[i] = bool(decision.accepted)
        else:
            more[i] = decision.more_jobs
    return accept, value, more


# ---------------------------------------------------------------------------
# Regime kernels
# ---------------------------------------------------------------------------


def _pool_compact(reliability, speed, ids, keep, new_rel, new_speed, new_ids):
    """Apply one churn batch to the pool columns: departures drop rows
    (boolean keep-mask), arrivals append rows.  Returns the new columns."""
    return (
        np.concatenate((reliability.compress(keep), new_rel)),
        np.concatenate((speed.compress(keep), new_speed)),
        np.concatenate((ids.compress(keep), new_ids)),
    )


def _spot_tally(ids, passed, passes, fails):
    """Fold one wave's spot-check outcomes into the per-node tallies.

    In-place, duplicate-safe (``np.add.at``): the exact column analogue
    of :meth:`CredibilityManager.spot_check` called once per check.
    """
    np.add.at(passes, ids[passed], 1)
    np.add.at(fails, ids[~passed], 1)


def _horizon_cut(start, span, horizon):
    """Which active tasks' waves end past the horizon (truncated).

    Matches the DES clock rule exactly: events *at* the horizon still
    fire (:meth:`EventQueue.pop_due` stops strictly after ``limit``), so
    a wave is truncated only when its slowest job lands strictly later.
    """
    return start + span > horizon


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _validate(config: DcaConfig) -> None:
    model = config.failure_model
    if model is not None and type(model) is not ByzantineCollusion:
        raise ColumnarUnsupported(
            "the columnar engine models the binary colluding-Byzantine "
            f"failure model only, got {type(model).__name__}; use run_dca"
        )
    if is_node_aware(config.strategy):
        raise ColumnarUnsupported(
            "node-aware strategies need per-node bookkeeping; use run_dca"
        )


def run_columnar_dca(
    config: DcaConfig,
    recorder: Optional[Recorder] = None,
    *,
    max_waves: int = 10_000,
) -> ColumnarReport:
    """Run one DCA computation with columnar batch state.

    Args:
        config: The run configuration (same class the DES takes); see
            :class:`ColumnarUnsupported` for the supported regime.
        recorder: Optional telemetry recorder; receives run-level
            aggregates (submits, dispatches, timeouts, accepts, makespan).
        max_waves: Runaway guard, at least 1; a healthy run needs a
            handful of waves.  Exceeding it raises
            :class:`~repro.core.runner.WaveLimitExceeded`.

    Returns:
        A :class:`ColumnarReport` with the Section 4.1 measures.
    """
    report, _ = _run_columnar(config, recorder, max_waves, columns=False)
    return report


def run_columnar_dca_columns(
    config: DcaConfig,
    recorder: Optional[Recorder] = None,
    *,
    max_waves: int = 10_000,
) -> Tuple[ColumnarReport, Dict[str, "np.ndarray"]]:
    """Like :func:`run_columnar_dca`, but also return per-task columns.

    The columns cover *completed* tasks in task order --
    ``response_time`` (float64), ``jobs_used`` / ``waves`` (int64) and
    ``correct`` (bool) -- the raw material the shared-memory shard
    transport ships instead of pickled payloads (see
    :mod:`repro.parallel.shm`).
    """
    return _run_columnar(config, recorder, max_waves, columns=True)


#: The active-task columns, cut together as tasks finish.
_ACTIVE = ("ids", "true_votes", "false_votes", "clock", "jobs_used", "pending")

#: The largest per-task job count the int32 tally columns hold.
_TALLY_MAX = 2**31 - 1


def _check_tally(strategy: RedundancyStrategy, jobs: int) -> None:
    """Refuse a run before a task's job count passes the int32 tallies."""
    if jobs > _TALLY_MAX:
        raise ValueError(
            f"{strategy.describe()} needs {jobs} jobs for one task, past the "
            f"columnar engine's int32 job tallies ({_TALLY_MAX}); use run_dca"
        )


class _Run:
    """The mutable state of one columnar run, shared by the wave phases.

    The ``_ACTIVE`` columns hold only the tasks still in flight, in task
    order, so a wave updates them with contiguous in-place ops and cuts
    finished tasks out once.  A finished task adds to exact integer
    tallies and writes its response time and completion flag by task
    id; with ``columns`` set, its vote outcome, jobs and waves too.
    """

    def __init__(self, config: DcaConfig, columns: bool) -> None:
        initial_jobs = config.strategy.initial_jobs()
        _check_tally(config.strategy, initial_jobs)
        self.config = config
        self.strategy = config.strategy
        self.decider = _DECIDERS.get(type(config.strategy), _decide_fallback)
        registry = RngRegistry(config.seed).spawn("columnar")
        self.rng_nodes = np.random.default_rng(registry.spawn("nodes").seed)
        self.rng_select = np.random.default_rng(registry.spawn("selection").seed)
        self.rng_failures = np.random.default_rng(registry.spawn("failures").seed)
        self.rng_durations = np.random.default_rng(registry.spawn("durations").seed)
        # Spawn seeds are stateless name hashes, so these two streams never
        # perturb the four legacy ones.
        self.rng_churn = np.random.default_rng(registry.spawn("churn").seed)
        self.rng_spot = np.random.default_rng(registry.spawn("spot-checks").seed)
        self.timeout = config.effective_timeout
        self.horizon = config.max_time
        self.has_churn = bool(config.arrival_rate or config.departure_rate)
        self.has_spot = config.spot_check_rate > 0.0

        # Struct-of-arrays node pool: one column per node attribute.  A
        # homogeneous pool (fixed reliability, no speed spread) collapses
        # to scalars: per-job draws are then iid and no node indexing is
        # needed.  Churn forces real columns even when homogeneous -- the
        # pool's *membership* varies over time -- plus a stable-id column
        # so spot-check tallies survive compaction.
        distribution = config.reliability_distribution
        homogeneous = config.speed_spread == 0.0 and not _draws(distribution)
        self.track_nodes = not homogeneous or self.has_churn
        self.node_reliability = self.node_speed = self.node_ids = None
        self.pool_size = self.next_node_id = config.nodes
        self.scalar_reliability = 0.0
        if homogeneous:
            self.scalar_reliability = distribution.sample(self.rng_failures)  # no draw
            if self.has_churn:
                self.node_reliability = np.full(config.nodes, float(self.scalar_reliability))
                self.node_speed = np.ones(config.nodes, dtype=np.float64)
        else:
            self.node_reliability = _sample_nodes(distribution, self.rng_nodes, config.nodes)
            self.node_speed = _node_speeds(config, self.rng_nodes, config.nodes)
        if self.has_churn:
            self.node_ids = np.arange(config.nodes, dtype=np.int64)
        # Grow-only per-node spot-check tallies, indexed by stable node id
        # (== pool position when there is no churn).
        self.spot_passes = np.zeros(config.nodes, dtype=np.int64)
        self.spot_fails = np.zeros(config.nodes, dtype=np.int64)

        tasks = config.tasks
        self.ids = np.arange(tasks, dtype=np.int64)
        self.true_votes, self.false_votes, self.jobs_used = (
            np.zeros(tasks, dtype=np.int32) for _ in range(3)
        )
        self.clock = np.zeros(tasks, dtype=np.float64)
        self.pending = np.full(tasks, initial_jobs, dtype=np.int32)
        # Completed tasks: exact tallies, plus the two columns the report
        # needs per task (its mean response keeps numpy's summation order).
        self.completed = self.correct = self.total_jobs = self.max_jobs = 0
        self.waves_total = 0
        self.done = np.zeros(tasks, dtype=bool)
        self.done_clock = np.zeros(tasks, dtype=np.float64)
        self.done_true = self.done_jobs = self.done_waves = None
        if columns:
            self.done_true = np.zeros(tasks, dtype=bool)
            self.done_jobs = np.zeros(tasks, dtype=np.int64)
            self.done_waves = np.zeros(tasks, dtype=np.int64)
        self.wave = self.dispatched = self.timed_out = 0
        self.spot_checks = self.joins = self.departures = 0
        self.frontier = 0.0  # global clock: the latest wave-end seen so far
        self.churn_clock = 0.0  # pool state is current up to this time

    def keep(self, rows) -> None:
        """Keep only the active tasks at positions ``rows``."""
        for name in _ACTIVE:
            setattr(self, name, getattr(self, name).take(rows))


def _run_columnar(
    config: DcaConfig,
    recorder: Optional[Recorder],
    max_waves: int,
    *,
    columns: bool,
) -> Tuple[ColumnarReport, Optional[Dict[str, "np.ndarray"]]]:
    if max_waves < 1:
        raise ValueError(f"max_waves must be at least 1, got {max_waves}")
    _require_numpy()
    _validate(config)
    run = _Run(config, columns)
    rec = active_recorder(recorder)
    if rec is not None:
        rec.count(DCA_SUBMITS, config.tasks)
    while run.ids.size:
        run.wave += 1
        if run.wave > max_waves:
            raise WaveLimitExceeded(
                f"{run.strategy.describe()} exceeded {max_waves} columnar "
                "waves; the strategy may not be converging"
            )
        if run.has_churn and run.wave > 1:
            _churn_step(run)
        width, ends, jobs = _segments(run.pending)
        run.dispatched += jobs
        draws = _draw_jobs(run, jobs)
        if run.has_spot:
            _spot_gate(run, jobs, width, ends)
        wave = _reduce_wave(run.pending, width, ends, *draws)
        if run.horizon is not None:
            wave = _cut_at_horizon(run, *wave)
        _fold(run, *wave)
        if run.ids.size:
            _decide_retire(run)
    return _report(run, rec)


def _sample_nodes(distribution, rng, count: int):
    """``count`` fresh nodes' reliability column, sampled from ``rng``."""
    return np.asarray(
        [distribution.sample(_NumpyRandom(rng)) for _ in range(count)], dtype=np.float64
    )


def _node_speeds(config: DcaConfig, rng, count: int):
    """``count`` fresh nodes' speed column.  Without a speed spread every
    speed is exactly 1.0, so the engine never scales a duration by it."""
    if config.speed_spread > 0.0 and count:
        return 1.0 + config.speed_spread * rng.uniform(-1.0, 1.0, count)
    return np.ones(count, dtype=np.float64)


def _churn_step(run: _Run) -> None:
    """Bring the pool forward to the global frontier.

    Wave boundaries are the model's churn resolution: departures drop
    uniform rows, arrivals append freshly drawn nodes, both Poisson in
    the frontier time elapsed since the last step.
    """
    config, rng = run.config, run.rng_churn
    now = run.frontier if run.horizon is None else min(run.frontier, run.horizon)
    dt = now - run.churn_clock
    run.churn_clock = now
    n_dep = n_arr = 0
    if config.departure_rate and dt > 0.0:
        # The DES departure event only fires while >1 node is alive; the
        # batch equivalent caps at pool_size - 1.
        n_dep = min(int(rng.poisson(config.departure_rate * dt)), run.pool_size - 1)
    if config.arrival_rate and dt > 0.0:
        n_arr = int(rng.poisson(config.arrival_rate * dt))
    if not (n_dep or n_arr):
        return
    keep = np.ones(run.pool_size, dtype=bool)
    if n_dep:
        keep[rng.choice(run.pool_size, size=n_dep, replace=False)] = False
    new_rel = _sample_nodes(config.reliability_distribution, rng, n_arr)
    new_speed = _node_speeds(config, rng, n_arr)
    new_ids = np.arange(run.next_node_id, run.next_node_id + n_arr, dtype=np.int64)
    run.next_node_id += n_arr
    if n_arr and run.has_spot:
        grow = np.zeros(n_arr, dtype=np.int64)
        run.spot_passes = np.concatenate((run.spot_passes, grow))
        run.spot_fails = np.concatenate((run.spot_fails, grow))
    run.node_reliability, run.node_speed, run.node_ids = _pool_compact(
        run.node_reliability, run.node_speed, run.node_ids, keep, new_rel, new_speed, new_ids
    )
    run.pool_size = run.node_reliability.shape[0]
    run.departures += n_dep
    run.joins += n_arr


def _segments(counts):
    """``(width, ends, jobs)``: each task's jobs are a contiguous run of
    the wave's job columns, ``width`` long when every task dispatches the
    same count (every first wave, every traditional wave), else ending
    at ``ends``."""
    width = int(counts[0])
    if counts.min() == counts.max():
        return width, None, width * counts.shape[0]
    ends = np.cumsum(counts)
    return 0, ends, int(ends[-1])


def _outcomes(run: _Run, count: int, index, failures, durations):
    """``(correct, silent, duration)`` of ``count`` jobs on pool rows
    ``index``, drawn silent-then-correct from ``failures``; ``silent`` is
    None when no node goes silent."""
    config = run.config
    reliability = run.node_reliability[index] if run.track_nodes else run.scalar_reliability
    silent = None
    if config.unresponsive_prob:
        silent = failures.random(count) < config.unresponsive_prob
    correct = failures.random(count) < reliability
    duration = durations.uniform(config.duration_low, config.duration_high, count)
    if config.speed_spread:
        duration *= run.node_speed[index]
    return correct, silent, duration


def _draw_jobs(run: _Run, jobs: int):
    """``(good, responded, response_time)`` of one wave's jobs: ``good``
    marks the true values returned in time, ``responded`` is None when
    every job responded."""
    index = None
    if run.track_nodes:
        index = run.rng_select.integers(0, run.pool_size, jobs)
    good, silent, duration = _outcomes(
        run, jobs, index, run.rng_failures, run.rng_durations
    )
    if silent is None and duration.max() < run.timeout:
        return good, None, duration
    # A job responds only if its node speaks up *and* beats the deadline
    # (the DES deadline event outruns a same-time completion).
    responded = duration < run.timeout
    if silent is not None:
        responded &= ~silent
    good &= responded
    return good, responded, np.where(responded, duration, run.timeout)


def _spot_gate(run: _Run, jobs: int, width: int, ends) -> None:
    """Replay the task server's assignment gate for spot checks.

    Every assignment attempt draws once; a diverted slot is re-assigned
    and draws again, so the rounds shrink geometrically.  All
    spot-related randomness comes from its own stream, so enabling spot
    checks never perturbs the task outcome draws.
    """
    rng, rate = run.rng_spot, run.config.spot_check_rate
    # The first round gates every job; a diverted one maps to its task
    # (and so to this wave's dispatch time) through its segment.
    diverted = np.flatnonzero(rng.random(jobs) < rate)
    tasks = diverted // width if width else np.searchsorted(ends, diverted, side="right")
    spot_tasks = []
    while tasks.size:
        spot_tasks.append(tasks)
        tasks = tasks.compress(rng.random(tasks.size) < rate)
    if not spot_tasks:
        return
    spot_start = run.clock.take(np.concatenate(spot_tasks))
    n_spot = spot_start.shape[0]
    run.spot_checks += n_spot
    run.dispatched += n_spot
    spot_index = rng.integers(0, run.pool_size, n_spot)
    correct, silent, duration = _outcomes(run, n_spot, spot_index, rng, rng)
    responded = duration < run.timeout
    if silent is not None:
        responded &= ~silent
    # The server learns an outcome when its event fires: the completion
    # (pass or wrong answer) or the deadline (silent / too slow -> also a
    # timed-out job).  Under a horizon, events past it never fire.
    if run.horizon is None:
        completion_seen = deadline_seen = np.ones(n_spot, dtype=bool)
    else:
        completion_seen = spot_start + duration <= run.horizon
        deadline_seen = spot_start + run.timeout <= run.horizon
    run.timed_out += int((~responded & deadline_seen).sum())
    seen = np.where(responded, completion_seen, deadline_seen)
    passed = responded & correct
    ids = run.node_ids[spot_index] if run.has_churn else spot_index
    _spot_tally(ids[seen], passed[seen], run.spot_passes, run.spot_fails)


def _strided(ufunc, column, width: int, dtype=None):
    """Reduce each task's ``width`` consecutive jobs with ``ufunc``:
    ``width - 1`` strided in-place calls."""
    out = column[::width].astype(dtype or column.dtype)
    for offset in range(1, width):
        ufunc(out, column[offset::width], out=out)
    return out


def _segment_counts(flags, width: int, ends):
    """Per-task counts of a wave's True job flags."""
    if width:
        return _strided(np.add, flags, width, np.int32)
    # One running sum, differenced at the segment ends.  A wave's job
    # count fits int32 (its float64 columns alone would need 16 GiB
    # past it), and the narrower sum is ~3x faster.
    running = np.cumsum(flags, dtype=np.int32)
    return np.diff(running[ends - 1], prepend=np.int32(0))


def _reduce_wave(counts, width: int, ends, good, responded, response_time):
    """Per-task ``(true votes, responses, span)`` of one wave; a task's
    wave resolves at its slowest job."""
    true_wave = _segment_counts(good, width, ends)
    responses = counts if responded is None else _segment_counts(responded, width, ends)
    if width:
        span = _strided(np.maximum, response_time, width)
    else:
        span = np.maximum.reduceat(response_time, ends - counts)
    return true_wave, responses, span


def _cut_at_horizon(run: _Run, true_wave, responses, span):
    """Drop the tasks whose wave ends past the horizon.  Their jobs were
    dispatched (and counted), but no vote lands, no decision happens, and
    no deadline fires (a wave with a timed-out job spans the full
    timeout, which the cut proves is past the horizon)."""
    truncated = _horizon_cut(run.clock, span, run.horizon)
    if not truncated.any():
        return true_wave, responses, span
    if run.has_churn:
        run.frontier = max(run.frontier, float((run.clock + span).max()))
    live = np.flatnonzero(~truncated)
    run.keep(live)
    return true_wave.take(live), responses.take(live), span.take(live)


def _fold(run: _Run, true_wave, responses, span) -> None:
    """Add one wave into the live tasks' tallies, clocks and job counts."""
    run.true_votes += true_wave
    run.false_votes += responses
    run.false_votes -= true_wave
    if responses is not run.pending:
        run.timed_out += int(run.pending.sum() - responses.sum())
    # Wave-synchronous clock: the wave resolves at its slowest job.
    run.clock += span
    run.jobs_used += run.pending
    if run.has_churn and run.clock.size:
        run.frontier = max(run.frontier, float(run.clock.max()))


def _decide_retire(run: _Run) -> None:
    """Decide every live task; tally the accepted ones, write their
    per-task results by id and cut them out.  Every task starts at wave
    1 and truncated ones leave for good, so an accepted task has run
    exactly ``run.wave`` waves.  The next wave's job counts are checked
    against the int32 tallies before anything draws them."""
    accept, value, more = run.decider(run.strategy, run.true_votes, run.false_votes)
    run.pending = more
    if accept.any():
        rows = np.flatnonzero(accept)
        done = run.ids.take(rows)
        jobs = run.jobs_used.take(rows)
        run.completed += rows.size
        run.correct += int(np.count_nonzero(value & accept))
        run.total_jobs += int(jobs.sum())
        run.max_jobs = max(run.max_jobs, int(jobs.max()))
        run.waves_total += rows.size * run.wave
        run.done[done] = True
        run.done_clock[done] = run.clock.take(rows)
        if run.done_waves is not None:
            run.done_true[done] = value.take(rows)
            run.done_jobs[done] = jobs
            run.done_waves[done] = run.wave
        run.keep(np.flatnonzero(~accept))
    if run.ids.size:
        _check_tally(run.strategy, int(run.jobs_used.max()) + int(run.pending.max()))
        run.pending = run.pending.astype(np.int32, copy=False)


def _report(run: _Run, rec) -> Tuple[ColumnarReport, Optional[Dict[str, "np.ndarray"]]]:
    """The run's report, and with ``columns`` its per-task columns over
    completed tasks."""
    config = run.config
    completed_count = run.completed

    def completed_only(column):
        return column if completed_count == config.tasks else column.compress(run.done)

    clock = completed_only(run.done_clock)
    columns = None
    if run.done_waves is not None:
        columns = {
            "response_time": clock,
            "jobs_used": completed_only(run.done_jobs),
            "waves": completed_only(run.done_waves),
            "correct": completed_only(run.done_true),
        }
    if run.horizon is not None and completed_count < config.tasks:
        # Incomplete at the horizon: the DES clock stops exactly there.
        makespan = float(run.horizon)
    elif completed_count:
        # All done (or no horizon): the run ends at the last decision.
        makespan = float(clock.max())
    else:
        makespan = 0.0
    if rec is not None:
        rec.count(DCA_DISPATCHES, run.dispatched)
        rec.count(DCA_TIMEOUTS, run.timed_out)
        rec.count(DCA_ACCEPTS, completed_count)
        if run.spot_checks:
            rec.count(DCA_SPOT_CHECKS, run.spot_checks)
        rec.gauge(DCA_MAKESPAN, makespan)
    # The DES report yields nan means over zero records, 0 extremes.
    mean_response = max_response = mean_waves = math.nan
    if completed_count:
        mean_response = float(clock.mean())
        max_response = float(clock.max())
        # Exact: numpy's float64 mean of the integer waves column sums
        # exactly too, below 2**53.
        mean_waves = run.waves_total / completed_count
    report = ColumnarReport(
        strategy=run.strategy.describe(),
        tasks_submitted=config.tasks,
        tasks_completed=completed_count,
        tasks_correct=run.correct,
        total_jobs=run.total_jobs,
        max_jobs_per_task=run.max_jobs,
        mean_response_time=mean_response,
        max_response_time=max_response,
        mean_waves=mean_waves,
        makespan=makespan,
        jobs_timed_out=run.timed_out,
        seed=config.seed,
        spot_checks=run.spot_checks,
        nodes_blacklisted=int((run.spot_fails > 0).sum()),
        nodes_joined=run.joins,
        nodes_departed=run.departures,
    )
    return report, columns


# ---------------------------------------------------------------------------
# Reliability-distribution bridging
# ---------------------------------------------------------------------------


class _NumpyRandom:
    """Just enough of the ``random.Random`` surface for distributions.

    :class:`~repro.core.distributions.ReliabilityDistribution` samplers
    take a ``random.Random``; this adapter lets them draw from a seeded
    numpy generator instead, so the node columns come from the columnar
    seed family.
    """

    def __init__(self, rng) -> None:
        self._rng = rng

    def random(self) -> float:
        return float(self._rng.random())

    def uniform(self, low: float, high: float) -> float:
        return float(self._rng.uniform(low, high))

    def gauss(self, mu: float, sigma: float) -> float:
        return float(self._rng.normal(mu, sigma))

    def betavariate(self, alpha: float, beta: float) -> float:
        return float(self._rng.beta(alpha, beta))

    def choice(self, seq):
        return seq[int(self._rng.integers(0, len(seq)))]


def _draws(distribution) -> bool:
    """Whether sampling the distribution consumes randomness.

    Fixed reliabilities return their constant without drawing, so a
    fixed homogeneous pool needs no node columns at all; anything else
    gets a per-node reliability column.
    """
    probe = _CountingRandom()
    distribution.sample(probe)
    return probe.calls > 0


class _CountingRandom:
    """Counts draw calls without yielding randomness (probe double)."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name: str):
        def counted(*args, **kwargs):
            self.calls += 1
            if name == "choice":
                return args[0][0]
            return 0.5

        return counted
