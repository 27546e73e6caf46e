# reprolint: disable-file=RL003 -- byte-exact golden comparisons are the point
"""Pinned output digests for the columnar engine.

Each digest is a sha256 over one seeded run's whole output:

* every field of the :class:`~repro.dca.columnar.ColumnarReport`;
* the sha256 of each per-task result column (name, dtype and bytes);
* the :meth:`TelemetryRecorder.as_payload` of the recorder it fed.

The digests were taken from the wave loop that gathered and scattered
every per-task column by task id each wave and reduced the tallies with
``np.add.reduceat``.  They pin that any rewrite of the loop's
bookkeeping changes no output byte, in every regime the engine covers:

* the four vectorised deciders, and non-vectorised strategies that take
  the per-task ``_decide_fallback``;
* heterogeneous pools (speed spread, drawn reliabilities);
* silent nodes and a timeout that some jobs miss;
* churn, over a heterogeneous and a homogeneous pool, including a pool
  that churn shrinks to one node;
* spot checks, alone, with churn, and with silent nodes;
* ``max_time`` horizons, with timeouts and with every regime at once,
  and a horizon so small that nothing completes;
* a single-node pool, and ``initial_jobs`` above the pool size.
"""

import dataclasses
import hashlib
import json

import pytest

np = pytest.importorskip("numpy")

from repro.core import (
    ComplexIterativeRedundancy,
    IterativeRedundancy,
    NoRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.core.distributions import BetaReliability, TwoClassReliability
from repro.dca import DcaConfig, run_columnar_dca, run_columnar_dca_columns
from repro.dca.columnar import _DECIDERS
from repro.obs import TelemetryRecorder


class _PlainIterative(IterativeRedundancy):
    """Iterative redundancy without a vectorised decider (a subclass is
    not in ``_DECIDERS``), so every wave goes through ``_decide_fallback``."""


_BETA = BetaReliability.with_mean(0.7)
_CHURN = dict(arrival_rate=2.0, departure_rate=2.0)
_SILENT = dict(unresponsive_prob=0.2, timeout=1.2)


#: (scenario, strategy factory, DcaConfig overrides, digest, a check that
#: the run really takes the path the scenario is named for).
PINNED = [
    (
        "ir",
        lambda: IterativeRedundancy(3),
        {},
        "233c2f84028e9807acdc91bfa400200019ca7c00d5be828a89160c7e755596e5",
        lambda r: r.tasks_completed == r.tasks_submitted and r.mean_waves > 1,
    ),
    (
        "pr",
        lambda: ProgressiveRedundancy(7),
        {},
        "f18c9c14ebfda2497b1c310d2b93ec5600a7396f4caf5e327b2a7ca16725c6b3",
        lambda r: r.tasks_completed == r.tasks_submitted and r.mean_waves > 1,
    ),
    (
        "tr",
        lambda: TraditionalRedundancy(7),
        dict(unresponsive_prob=0.1),
        "fe939f41f4aef351ae1c88b81ad9c416fce7dcbe724b6248faad6e4bb40adb3e",
        lambda r: r.jobs_timed_out > 0 and r.mean_waves > 1,
    ),
    (
        "complex",
        lambda: ComplexIterativeRedundancy(0.7, 0.95),
        {},
        "2662ff2a2f1332ff5f76dd6ff37175a33b98cff9c8562d772024f12abd6eec5c",
        lambda r: r.tasks_completed == r.tasks_submitted and r.mean_waves > 1,
    ),
    (
        "fallback_no_redundancy",
        NoRedundancy,
        _SILENT,
        "ce41dff50ba18943151a13ce43551979a34931c0bcfef6bc947f3bb4fc6be05e",
        lambda r: r.jobs_timed_out > 0 and r.mean_waves > 1,
    ),
    (
        "fallback_iterative",
        lambda: _PlainIterative(3),
        dict(_SILENT, reliability=_BETA, speed_spread=0.3),
        "4a271d1acdb278c397ee6252a226409667eff308945731dd2e4c191831144122",
        lambda r: r.jobs_timed_out > 0 and r.mean_waves > 1,
    ),
    (
        "heterogeneous",
        lambda: IterativeRedundancy(3),
        dict(reliability=_BETA, speed_spread=0.5),
        "d43037a20c269bf51baedc5766d95c8ca415b35bc4e98a71c8a81fae238d7e69",
        lambda r: r.tasks_completed == r.tasks_submitted,
    ),
    (
        "heterogeneous_two_class",
        lambda: ProgressiveRedundancy(5),
        dict(reliability=TwoClassReliability(0.95, 0.4, 0.7), speed_spread=0.2),
        "fb97e5a26a8a664cbc3e2ed91096772e9d714e6307893d94ec590330503c7975",
        lambda r: r.tasks_completed == r.tasks_submitted,
    ),
    (
        "silent_timeout",
        lambda: IterativeRedundancy(3),
        _SILENT,
        "1dfb34465dfc4a8ba968a16e2210c66ed41cc0c0a3179c8cd49996f72b198358",
        lambda r: r.jobs_timed_out > 0,
    ),
    (
        "churn",
        lambda: IterativeRedundancy(3),
        dict(_CHURN, reliability=_BETA, speed_spread=0.4, unresponsive_prob=0.1),
        "708e4b1e3636509d9cbd4475432bba553d09e94837e4a8d8e109cf43abcb4a6c",
        lambda r: r.nodes_joined > 0 and r.nodes_departed > 0,
    ),
    (
        "churn_homogeneous",
        lambda: ProgressiveRedundancy(7),
        dict(arrival_rate=2.0, departure_rate=3.0),
        "ac3d193456713228552ad98889431edb5e1bbf434f9e1024c5778a85aa4741b4",
        lambda r: r.nodes_joined > 0 and r.nodes_departed > 0,
    ),
    (
        "churn_drains_pool",
        lambda: IterativeRedundancy(3),
        dict(nodes=6, departure_rate=40.0),
        "2736ce560b9ed09eed936e9f8328089dbcc5cd3cd2b7de4e17173525d3a55ac6",
        lambda r: r.nodes_departed == 5 and r.nodes_joined == 0,
    ),
    (
        "spot",
        lambda: IterativeRedundancy(3),
        dict(spot_check_rate=0.2),
        "6d839aa3c31fdc8e486a47e7ccba050c4150f8a9ee4567922af54f69dffd98e2",
        lambda r: r.spot_checks > 0 and r.nodes_blacklisted > 0,
    ),
    (
        "spot_churn",
        lambda: ProgressiveRedundancy(5),
        dict(_CHURN, spot_check_rate=0.2, reliability=_BETA),
        "c931444e63782450f69256fdd02ed46fd257618b9c3aca993ccc9c72f2a94c98",
        lambda r: r.spot_checks > 0 and r.nodes_joined > 0,
    ),
    (
        "spot_silent",
        lambda: IterativeRedundancy(3),
        dict(_SILENT, spot_check_rate=0.2),
        "156f5a628cb5e498bfbd3a76d43ad3503cb6f7fbf4302266c4ed0e424df6d11e",
        lambda r: r.spot_checks > 0 and r.jobs_timed_out > 0,
    ),
    (
        "max_time",
        lambda: IterativeRedundancy(3),
        dict(max_time=2.8),
        "dc07cb097e210bca62ba5ad2ce0643f9c9d6913a08ddd593688f59dfa44e047b",
        lambda r: 0 < r.tasks_completed < r.tasks_submitted,
    ),
    (
        "max_time_timeouts",
        lambda: IterativeRedundancy(3),
        dict(max_time=4.2, unresponsive_prob=0.2, timeout=3.0),
        "223b543c416aac36115c612ab7577a7f6eba23597267f9aab71e3b87d9118459",
        lambda r: 0 < r.tasks_completed < r.tasks_submitted and r.jobs_timed_out > 0,
    ),
    (
        "max_time_every_regime",
        lambda: ProgressiveRedundancy(5),
        dict(
            _CHURN,
            max_time=3.1,
            spot_check_rate=0.2,
            unresponsive_prob=0.2,
            timeout=1.3,
            reliability=_BETA,
            speed_spread=0.2,
        ),
        "b7cb328e35e5a8b653560853e147e0ce39ef4944728da2965584865918054eef",
        lambda r: 0 < r.tasks_completed < r.tasks_submitted and r.spot_checks > 0,
    ),
    (
        "max_time_nothing_completes",
        lambda: IterativeRedundancy(3),
        dict(max_time=0.1, spot_check_rate=0.2),
        "d7dcae3700beadc973834f09d556f226bee59b3b12467edeee5144945669d9b9",
        lambda r: r.tasks_completed == 0 and r.makespan == 0.1,
    ),
    (
        "single_node",
        lambda: IterativeRedundancy(3),
        dict(nodes=1, reliability=_BETA, speed_spread=0.3),
        "883043c992ed8a1b40b1d6142ca7c0ae894af86ff7ab6bf2ac436e68d9107818",
        lambda r: r.tasks_completed == r.tasks_submitted,
    ),
    (
        "initial_jobs_exceed_pool",
        lambda: IterativeRedundancy(7),
        dict(nodes=2),
        "078fde707dda9b8026632ab08f5f4a427835a78df2d3b1b47fcbd6de626a997c",
        lambda r: r.max_jobs_per_task >= 7,
    ),
]


def _config(factory, overrides):
    params = dict(tasks=600, nodes=150, reliability=0.7, seed=2011)
    params.update(overrides)
    return DcaConfig(strategy=factory(), **params)


def columnar_digest(report, columns, payload) -> str:
    """sha256 over the report fields, each column's sha256, and the payload."""
    digest = hashlib.sha256()
    digest.update(json.dumps(dataclasses.asdict(report), sort_keys=True).encode())
    for name in sorted(columns):
        column = np.ascontiguousarray(columns[name])
        digest.update(f"{name}:{column.dtype.str}:".encode())
        digest.update(hashlib.sha256(column.tobytes()).hexdigest().encode())
    digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()


def recorded_run(factory, overrides):
    recorder = TelemetryRecorder()
    config = _config(factory, overrides)
    report, columns = run_columnar_dca_columns(config, recorder=recorder)
    assert set(columns) == {"response_time", "jobs_used", "waves", "correct"}
    return report, columns, recorder.as_payload()


@pytest.mark.parametrize(
    "name,factory,overrides,expected,takes_path",
    PINNED,
    ids=[entry[0] for entry in PINNED],
)
def test_columnar_output_matches_pinned_digest(
    name, factory, overrides, expected, takes_path
):
    report, columns, payload = recorded_run(factory, overrides)
    assert takes_path(report)
    if name.startswith("fallback"):
        assert type(factory()) not in _DECIDERS
    assert columnar_digest(report, columns, payload) == expected


def test_report_only_entry_point_matches():
    # run_columnar_dca shares the loop; it must report the same run.
    factory, overrides = PINNED[0][1], PINNED[0][2]
    report, _, _ = recorded_run(factory, overrides)
    assert run_columnar_dca(_config(factory, overrides)) == report
