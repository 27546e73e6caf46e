# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for DcaConfig validation and the workload generator."""

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.core.distributions import BetaReliability, FixedReliability
from repro.dca import run_columnar_dca, run_dca
from repro.dca.config import DcaConfig
from repro.dca.workload import Task, Workload


def config(**overrides):
    defaults = dict(strategy=IterativeRedundancy(3), tasks=10, nodes=5)
    defaults.update(overrides)
    return DcaConfig(**defaults)


class TestDcaConfig:
    def test_defaults_match_paper_setup(self):
        c = config()
        assert c.duration_low == 0.5
        assert c.duration_high == 1.5
        assert c.reliability == 0.7

    def test_float_reliability_becomes_fixed_distribution(self):
        c = config(reliability=0.8)
        dist = c.reliability_distribution
        assert isinstance(dist, FixedReliability)
        assert dist.mean() == 0.8

    def test_distribution_passes_through(self):
        dist = BetaReliability.with_mean(0.7)
        assert config(reliability=dist).reliability_distribution is dist

    def test_effective_timeout_default(self):
        c = config()
        assert c.effective_timeout == pytest.approx(10.0 * 1.5)

    def test_effective_timeout_respects_speed_spread(self):
        c = config(speed_spread=0.5)
        assert c.effective_timeout == pytest.approx(10.0 * 1.5 * 1.5)

    def test_explicit_timeout_wins(self):
        assert config(timeout=99.0).effective_timeout == 99.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(tasks=0),
            dict(nodes=0),
            dict(duration_low=0.0),
            dict(duration_low=2.0, duration_high=1.0),
            dict(unresponsive_prob=1.0),
            dict(speed_spread=1.0),
            dict(arrival_rate=-1.0),
            dict(spot_check_rate=-0.1),
            dict(deadline_factor=1.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            config(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(timeout=0.0),
            dict(timeout=-1.0),
            dict(timeout=float("nan")),
            dict(timeout=0.5),  # ties the fastest job: the deadline wins ties
            dict(timeout=0.25, speed_spread=0.5),
        ],
        ids=["zero", "negative", "nan", "fastest-job", "fastest-fast-node"],
    )
    def test_timeout_every_job_would_miss_is_rejected(self, bad):
        with pytest.raises(ValueError, match="every job would time out"):
            config(**bad)

    @pytest.mark.parametrize(
        "good",
        [
            dict(timeout=float("inf")),
            dict(timeout=0.5000001),
            dict(timeout=0.26, speed_spread=0.5),
            dict(timeout=1.2, speed_spread=0.9),
            dict(timeout=99.0),
        ],
    )
    def test_timeout_some_job_can_meet_is_accepted(self, good):
        assert config(**good).effective_timeout == good["timeout"]

    @pytest.mark.parametrize(
        "bad",
        [-1.0, -1e-9, float("nan"), float("inf")],
        ids=["negative", "tiny-negative", "nan", "inf"],
    )
    def test_max_time_must_be_a_finite_non_negative_horizon(self, bad):
        # -1 used to run backwards (makespan -1.0 after 10 dispatches);
        # NaN silently meant "no horizon"; inf ended with makespan inf.
        with pytest.raises(ValueError, match="max_time"):
            config(max_time=bad)

    @pytest.mark.parametrize("engine", [run_dca, run_columnar_dca], ids=["des", "columnar"])
    @pytest.mark.parametrize(
        "bounds",
        [
            dict(duration_high=float("inf")),
            dict(duration_high=float("nan")),
            dict(duration_low=float("nan")),
            dict(duration_low=float("inf"), duration_high=float("inf")),
        ],
        ids=["inf-high", "nan-high", "nan-low", "inf-both"],
    )
    def test_non_finite_duration_bounds_are_rejected(self, engine, bounds):
        # An infinite high bound used to hang the DES in Simulator.schedule
        # and overflow numpy's uniform draw in the columnar engine.
        with pytest.raises(ValueError, match="duration_high < inf"):
            engine(
                DcaConfig(
                    strategy=IterativeRedundancy(2), tasks=5, nodes=5, seed=1, **bounds
                )
            )

    def test_zero_max_time_stops_at_the_start(self):
        report = run_dca(config(max_time=0.0))
        assert report.makespan == 0.0
        assert report.tasks_completed == 0

    def test_nan_deadline_factor_is_rejected(self):
        # A NaN factor made the effective timeout NaN: no job could time out.
        with pytest.raises(ValueError, match="deadline factor"):
            config(deadline_factor=float("nan"))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["arrival_rate", "departure_rate"])
    def test_churn_rate_must_be_finite(self, field, rate):
        with pytest.raises(ValueError, match="churn rates"):
            config(**{field: rate})

    @pytest.mark.parametrize(
        "strategy", [TraditionalRedundancy(3), IterativeRedundancy(2)], ids=["TR", "IR"]
    )
    def test_infinite_timeout_runs_to_completion(self, strategy):
        report = run_dca(
            DcaConfig(strategy=strategy, tasks=20, nodes=10, timeout=float("inf"))
        )
        assert report.tasks_completed == 20
        assert report.jobs_timed_out == 0


class TestWorkload:
    def test_generates_requested_count(self):
        tasks = list(Workload(7).tasks())
        assert len(tasks) == 7
        assert [t.task_id for t in tasks] == list(range(7))

    def test_binary_values(self):
        task = next(Workload(1).tasks())
        assert task.true_value is True
        assert task.wrong_value is False

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            Workload(0)

    @pytest.mark.parametrize("duration", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_task_rejects_bad_nominal_duration(self, duration):
        with pytest.raises(ValueError, match="nominal duration"):
            Task(task_id=0, nominal_duration=duration)

    @pytest.mark.parametrize("duration", [None, 0.0, 0.75, 3])
    def test_task_accepts_finite_non_negative_duration(self, duration):
        assert Task(task_id=0, nominal_duration=duration).nominal_duration == duration

    def test_task_values_must_differ(self):
        with pytest.raises(ValueError):
            Task(task_id=0, true_value="x", wrong_value="x")
