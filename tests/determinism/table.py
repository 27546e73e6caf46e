"""The determinism probe table: every pinned same-seed digest, in one place.

Each :class:`Row` is one small seeded run on one substrate (DES,
columnar, volunteer deployment, hand-wired volunteer clients, grid or
MapReduce), with the sha256 digests it must
reproduce and a check that the run takes the path the row is named for.
Every digest keeps the recipe its probe has always used, so none was
re-pinned when the probes moved here:

* DES ``payload``: ``json.dumps(recorder.as_payload(), sort_keys=True)``
  of the run's :class:`~repro.obs.TelemetryRecorder`;
* DES ``report``: :meth:`DcaReport.to_json`, which must be the same with
  the recorder off, uncapped and capped (telemetry never perturbs a run);
* columnar ``output``: :func:`columnar_digest` over the report fields,
  each per-task column and the recorder payload;
* volunteer and grid ``report``: the report's ``to_json()``;
* client ``report``: the JSON of the run's counters, clock and record
  lines;
* MapReduce ``report``: the map report's ``to_json()`` text (which
  writes a frozenset value as its members sorted by ``repr``) and the
  reduced output's ``repr``;
* DES, runner and shards ``checksum``: :func:`fingerprint_of` over the
  run's metrics -- the DES report's ``as_dict()``, each Monte-Carlo
  estimate's reliability, cost factor and mean waves, or the shard
  reports' combined fingerprint.  These are the checksums the retired
  ``dca_run``, ``decide_loops``, ``scale`` and ``scale_*`` bench suites
  gated; each row reproduces its suite's committed baseline checksum.

The golden DES rows were taken from the engine that still matched the
first trace-log goldens, the payload rows from the engine that counted
every dispatch as it happened, and the columnar rows from the wave loop
that gathered every column by task id.  A mismatch means a change altered
simulation *behaviour*: fix the change, do not refresh the digest.

``tests/determinism/test_gate.py`` checks every row pinned, replayed in
one process, and run under two ``PYTHONHASHSEED`` values.  For the last,
it runs this module as a script, which prints every case's digests::

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/determinism/table.py
"""

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core import (
    ComplexIterativeRedundancy,
    CredibilityManager,
    CredibilityStrategy,
    IterativeRedundancy,
    NoRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.core.distributions import BetaReliability, TwoClassReliability
from repro.core.runner import monte_carlo
from repro.dca import DcaConfig, run_columnar_dca, run_columnar_dca_columns, run_dca
from repro.grid import GridConfig, run_grid
from repro.mapreduce import MapReduceJob, run_mapreduce, wordcount_job
from repro.obs import TelemetryRecorder
from repro.parallel import fingerprint_of, merge_shard_reports, run_dca_shards, shard_specs
from repro.sim import Simulator, StopSimulation
from repro.sim.events import QUEUE_KINDS
from repro.volunteer import VolunteerConfig, run_volunteer
from repro.volunteer.client import VolunteerClient, VolunteerNodeProfile
from repro.volunteer.server import VolunteerServer, WorkUnit


class Row(NamedTuple):
    """One probe: a seeded run and the digests it must reproduce."""

    substrate: str
    name: str
    strategy: Callable[[], Any]
    config: Dict[str, Any]
    digests: Dict[str, str]
    takes_path: Callable[[Any], bool]
    caps: Dict[str, int] = {}
    queues: Tuple[Optional[str], ...] = (None,)


class Run(NamedTuple):
    """One run's digests, its canonical lines and final metrics (which a
    replay compares), and the evidence its row's ``takes_path`` reads."""

    digests: Dict[str, str]
    lines: List[str]
    metrics: Dict[str, Any]
    evidence: Any


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _attrs(attrs) -> str:
    return ",".join(f"{key}={attrs[key]!r}" for key in sorted(attrs))


def payload_lines(payload) -> List[str]:
    """Canonical lines of a recorder payload: spans in close order, then events."""
    return [
        f"t={s['start']!r}..{s['end']!r} {s['name']} key={s['key']!r} [{_attrs(s['attrs'])}]"
        for s in payload["spans"]
    ] + [f"t={e['time']!r} {e['name']} [{_attrs(e['attrs'])}]" for e in payload["events"]]


def record_lines(report) -> List[str]:
    """Canonical lines of a report's per-task records."""
    return [f"task={r.task_id} [{_attrs(dataclasses.asdict(r))}]" for r in report.records]


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


def _run_des(row: Row, config: dict) -> Run:
    def report_of(recorder):
        return run_dca(DcaConfig(strategy=row.strategy(), **config), recorder=recorder)

    recorder = TelemetryRecorder(**row.caps)
    report = report_of(recorder)
    payload = recorder.as_payload()
    digests = {"payload": _sha(json.dumps(payload, sort_keys=True))}
    if "report" in row.digests:
        capped = TelemetryRecorder(max_spans=3)
        reports = [_sha(r.to_json()) for r in (report_of(None), report, report_of(capped))]
        assert capped.dropped_spans > 0, "the capped recorder kept every span"
        # Off, uncapped and capped must agree; if not, all three show.
        digests["report"] = reports[0] if len(set(reports)) == 1 else " != ".join(reports)
    if "checksum" in row.digests:
        digests["checksum"] = fingerprint_of(report.as_dict())
    metrics = dict(report.as_dict(), telemetry=payload["metrics"], open_spans=payload["open_spans"])
    return Run(digests, payload_lines(payload), metrics, payload)


def _run_columnar(row: Row, config: dict) -> Run:
    recorder = TelemetryRecorder()
    report, columns = run_columnar_dca_columns(
        DcaConfig(strategy=row.strategy(), **config), recorder=recorder
    )
    assert set(columns) == {"response_time", "jobs_used", "waves", "correct"}
    # The report-only path keeps no exported columns; its report must
    # still be the same, nan means included.
    report_only = run_columnar_dca(DcaConfig(strategy=row.strategy(), **config))
    assert repr(report_only) == repr(report), f"{report_only} != {report}"
    payload = recorder.as_payload()
    values = {name: columns[name].tolist() for name in sorted(columns)}
    tasks = [
        f"task#{index} [{','.join(f'{name}={values[name][index]!r}' for name in values)}]"
        for index in range(report.tasks_completed)
    ]
    metrics = dict(dataclasses.asdict(report), telemetry=payload["metrics"])
    return Run(
        {"output": columnar_digest(report, columns, payload)},
        payload_lines(payload) + tasks,
        metrics,
        report,
    )


def _run_report(runner: Callable, config_class) -> Callable[[Row, dict], Run]:
    def run_report(row: Row, config: dict) -> Run:
        report = runner(config_class(strategy=row.strategy(), **config))
        return Run({"report": _sha(report.to_json())}, record_lines(report), report.as_dict(), report)

    return run_report


def _run_mapreduce(row: Row, config: dict) -> Run:
    config = dict(config)
    report = run_mapreduce(config.pop("job")(), row.strategy(), **config)
    map_json = report.map_report.to_json()
    digest = _sha(f"{map_json}\n{report.output!r}")
    metrics = dict(
        report.map_report.as_dict(),
        output=report.output,
        correct=report.correct,
        corrupted_chunks=report.corrupted_chunks,
    )
    return Run({"report": digest}, record_lines(report.map_report), metrics, report)


def _run_runner(row: Row, config: dict) -> Run:
    """One Monte-Carlo estimate per named strategy that ``row.strategy`` builds."""
    estimates = {
        name: monte_carlo(
            lambda strategy=strategy: strategy, config["reliability"], config["tasks"],
            seed=config["seed"],
        )
        for name, strategy in row.strategy().items()
    }
    fields = {name: dataclasses.asdict(estimate) for name, estimate in estimates.items()}
    checksum = fingerprint_of({
        name: {key: getattr(e, key) for key in ("reliability", "cost_factor", "mean_waves")}
        for name, e in estimates.items()
    })
    lines = [f"{name} [{_attrs(fields[name])}]" for name in fields]
    return Run({"checksum": checksum}, lines, fields, estimates)


#: The quick size of the retired ``scale`` and ``scale_*`` bench suites.
_SCALE_QUICK = dict(tasks=20_000, nodes=2_000, shards=4, reliability=0.7, seed=0)


def _run_shards(row: Row, config: dict) -> Run:
    """The shards of one computation, run in one process and merged."""
    envelopes = run_dca_shards(shard_specs(row.strategy, **config), jobs=1)
    merged = merge_shard_reports(envelopes)
    lines = [f"shard#{e.position} seed={e.seed} fingerprint={e.fingerprint}" for e in envelopes]
    return Run({"checksum": merged["checksum"]}, lines, merged, merged)


class _TracedServer(VolunteerServer):
    """Notes the event of each assignment, so a client can tell a
    mid-job suspension from going offline at the top of its loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.issued = None
        self.gaps = {"loop_top": 0, "mid_job": 0}

    def request_work(self, node_id):
        assignment = super().request_work(node_id)
        if assignment is not None:
            self.issued = (node_id, self.sim.events_processed)
        return assignment


class _TracedClient(VolunteerClient):
    def _offline_gap(self) -> float:
        # A mid-job gap falls in the event that issued the assignment.
        mid_job = self.server.issued == (self.profile.node_id, self.sim.events_processed)
        self.server.gaps["mid_job" if mid_job else "loop_top"] += 1
        return super()._offline_gap()


def _run_clients(row: Row, config: dict) -> Run:
    """A server and clients wired by hand, as the volunteer unit tests do."""
    config = dict(config)
    sim = Simulator(seed=config.pop("seed"))

    def all_done() -> None:
        raise StopSimulation

    profiles = config.pop("profiles")
    server = _TracedServer(
        sim, row.strategy(), deadline=config.pop("deadline"), pool_size=len(profiles),
        on_all_done=all_done,
    )
    for unit_id in range(config.pop("units")):
        server.submit(WorkUnit(unit_id=unit_id, payload=unit_id, true_value=2 * unit_id, wrong_value=-1))
    computed = []

    def compute(payload):
        computed.append(payload)
        return 2 * payload

    clients = [
        _TracedClient(sim, server, profile, sim.rng.stream(f"c{profile.node_id}"), compute=compute)
        for profile in profiles
    ]
    sim.run(until=config.pop("until"))
    assert not config, f"unused config {sorted(config)}"
    metrics = dict(
        now=sim.now,
        events=sim.events_processed,
        pending=sim.pending,
        remaining=server.remaining_units,
        computed=len(computed),
        gaps=server.gaps,
        **{
            name: getattr(server, name)
            for name in (
                "assignments_issued", "results_received", "deadline_misses",
                "requests_denied", "repeat_assignments",
            )
        },
        clients=[(c.jobs_reported, c.jobs_dropped, c.offline_periods) for c in clients],
    )
    lines = record_lines(server)
    digest = _sha(json.dumps(dict(metrics, records=lines), sort_keys=True))
    return Run({"report": digest}, lines, metrics, metrics)


RUNNERS = {
    "des": _run_des,
    "columnar": _run_columnar,
    "volunteer": _run_report(run_volunteer, VolunteerConfig),
    "client": _run_clients,
    "grid": _run_report(run_grid, GridConfig),
    "mapreduce": _run_mapreduce,
    "runner": _run_runner,
    "shards": _run_shards,
}


def run(row: Row, queue: Optional[str] = None, seed_offset: int = 0) -> Run:
    """Run one row, on ``queue`` if given, at its seed plus ``seed_offset``."""
    config = dict(row.config, seed=row.config["seed"] + seed_offset)
    if queue is not None:
        config["queue"] = queue
    return RUNNERS[row.substrate](row, config)


# -- DES ---------------------------------------------------------------------

_GOLDEN = dict(tasks=60, nodes=25, reliability=0.7, seed=1234)
_PAYLOAD = dict(tasks=60, nodes=20, reliability=0.7, seed=2011)
_DES_CHURN = dict(arrival_rate=0.8, departure_rate=0.8)
_DES_CAPS = dict(max_spans=100, max_events=40)


def _uncapped(payload) -> bool:
    return payload["dropped_spans"] == 0


def _timeouts(payload) -> bool:
    return "dca.timeout" in payload["metrics"]


def _spot_checks(payload) -> bool:
    return "dca.spot_check" in payload["metrics"]


def _credibility():
    return CredibilityStrategy(CredibilityManager(), target=0.95)


def _payload_row(name, strategy, overrides, caps, digest, takes_path) -> Row:
    return Row(
        "des", name, strategy, dict(_PAYLOAD, **overrides), {"payload": digest},
        takes_path, caps, QUEUE_KINDS,
    )


DES_ROWS = [
    # The goldens: each pins the uncapped payload and the bare report.
    Row(
        "des", "iterative_d3", lambda: IterativeRedundancy(3), _GOLDEN,
        {
            "payload": "95f64d5f8e59d267931a54726937f095ca52c0080a32bb0a867cc569893486f6",
            "report": "6e787d9eebc179d726f9aa120b4cd05357dd3e05d1f06d435670807cf047b198",
        },
        _uncapped,
    ),
    Row(
        "des", "progressive_k7", lambda: ProgressiveRedundancy(7), _GOLDEN,
        {
            "payload": "9a07de783858414d811a132e9fc6d660f5d1366ef26ebcb27e62b6abf90bc1d8",
            "report": "f98237220b9b3ea94bd7c561faddfb27ccc1534fd487872c0dc2847097b5d19c",
        },
        _uncapped,
    ),
    Row(
        "des", "traditional_k5", lambda: TraditionalRedundancy(5), _GOLDEN,
        {
            "payload": "ace3a31a25bb24ea5fdc7097faf8adb79a19c65067a1ef10e02ced216b57bdb3",
            "report": "56fb0158ccaabf898787a99d134659538fa81c63170fb48f064e5c876658cf28",
        },
        _uncapped,
    ),
    # Churn and silent nodes: cancellation, compaction and deadlines.
    Row(
        "des", "iterative_d2_churn", lambda: IterativeRedundancy(2),
        dict(
            tasks=40, nodes=15, reliability=0.65, seed=99, arrival_rate=0.5,
            departure_rate=0.5, unresponsive_prob=0.1,
        ),
        {
            "payload": "8c7c26f6cd7e663e46cffd7e12d3214ba2c903a26ffe4332de0e69c91a9fcd26",
            "report": "ef24ea9da0052846ecb132184ca4d7470202d6961a0b9c8ad98d314c68ba32b1",
        },
        _timeouts,
    ),
    # Payload rows, each on every event queue against one digest: the
    # paper's strategies uncapped and below the caps, churn (with a
    # horizon that leaves spans open), spot checks and silent nodes.
    _payload_row(
        "tr", lambda: TraditionalRedundancy(5), {}, {},
        "4492131f7db5f4fc7d421cc40e50ca99c5a7a9f4d135cb168e2a09cdfad1c0cd", _uncapped,
    ),
    _payload_row(
        "pr", lambda: ProgressiveRedundancy(5), {}, {},
        "ad538b3872e41b1faba8e33faeac0e70d1245266562c4c4725703408bca5fb1b", _uncapped,
    ),
    _payload_row(
        "ir", lambda: IterativeRedundancy(3), {}, {},
        "5d569b243c10080bbae840c28d2fcb059ee1365d12210449edbd06c279c340de", _uncapped,
    ),
    _payload_row(
        "tr_capped", lambda: TraditionalRedundancy(5), {}, _DES_CAPS,
        "a93fdc498bcc7a96aae4789a3038dd948050a729284913e8473e6b5ff813dcc2",
        lambda p: p["dropped_spans"] > 0 and p["dropped_events"] == 0,
    ),
    _payload_row(
        "pr_capped", lambda: ProgressiveRedundancy(5), {}, _DES_CAPS,
        "c3113f7a60fe5cfbd6a5166d114be9f2ea22abb6c44ea561392afbcf0f0bd3ae",
        lambda p: p["dropped_spans"] > 0 and p["dropped_events"] > 0,
    ),
    _payload_row(
        "ir_capped", lambda: IterativeRedundancy(3), {}, _DES_CAPS,
        "c5e8f14714bd54b0292381d2c1be5fb447ce577119dc9bb3614faa5e838fee4a",
        lambda p: p["dropped_spans"] > 0 and p["dropped_events"] > 0,
    ),
    _payload_row(
        "churn", lambda: IterativeRedundancy(2), _DES_CHURN, {},
        "625a99edb91de0189aa68e16b7b4d57166bd8638886d2b24ef4bcb588c7f4093", _timeouts,
    ),
    _payload_row(
        "churn_max_time", lambda: IterativeRedundancy(2), dict(_DES_CHURN, max_time=20.0), {},
        "2770cd6f4199d7b0079c687740a8c8683d006125be217a632a8f671da7649756",
        lambda p: p["open_spans"] > 0,
    ),
    _payload_row(
        "churn_max_time_capped", lambda: IterativeRedundancy(2),
        dict(_DES_CHURN, max_time=20.0), _DES_CAPS,
        "57ab3e9ad76c47131018060bcbf1c5b6900fcadbfa20d8cb1b0794fb6083eb1d",
        lambda p: p["open_spans"] > 0 and p["dropped_spans"] > 0,
    ),
    _payload_row(
        "spot_checks", lambda: IterativeRedundancy(2), dict(spot_check_rate=0.15), {},
        "be468d24e1a3e585190f98c3cfa3d201d18db3a65f38e1da28080494d7111f9c", _spot_checks,
    ),
    _payload_row(
        "silent_nodes", lambda: IterativeRedundancy(2), dict(unresponsive_prob=0.15), {},
        "f6b0d12e90b2a72122fc23152471605ebb011bc21ad3ff3158f1ccda64f982f7", _timeouts,
    ),
    _payload_row(
        "credibility_spot_checks", _credibility, dict(spot_check_rate=0.1), {},
        "7bb5623c68e2e4924571aa6c8703ccce6c77a0aeeed95509030fa33514f345dd", _spot_checks,
    ),
    _payload_row(
        "ir_spot_checks_capped", lambda: IterativeRedundancy(3),
        dict(spot_check_rate=0.15), _DES_CAPS,
        "958195ca25efc7fdc06818b36cf1f8f15f673e62c0f3234906de0fb02e468ad8",
        lambda p: p["dropped_spans"] > 0,
    ),
    # The retired ``dca_run`` bench suite's run; ``checksum`` is its
    # committed baseline checksum.
    Row(
        "des", "ir_2000_tasks", lambda: IterativeRedundancy(3),
        dict(tasks=2_000, nodes=400, reliability=0.7, seed=0),
        {
            "payload": "8899ff9beaf41ed4d8368f1ad8cbc42f6eb553c8be78b4bfd718c31da7571a03",
            "checksum": "77978767233be27bf6019954ac2db9d97179ac5483b164cefd31bdd4e897d511",
        },
        _uncapped,
    ),
]


# -- Columnar ----------------------------------------------------------------


class _PlainIterative(IterativeRedundancy):
    """Iterative redundancy without a vectorised decider (a subclass is
    not in ``_DECIDERS``), so every wave goes through ``_decide_fallback``."""


_COLUMNAR = dict(tasks=600, nodes=150, reliability=0.7, seed=2011)
_BETA = BetaReliability.with_mean(0.7)
_CHURN = dict(arrival_rate=2.0, departure_rate=2.0)
_SILENT = dict(unresponsive_prob=0.2, timeout=1.2)


def _columnar_row(name, strategy, overrides, digest, takes_path) -> Row:
    return Row(
        "columnar", name, strategy, dict(_COLUMNAR, **overrides), {"output": digest}, takes_path
    )


def _all_done(r) -> bool:
    return r.tasks_completed == r.tasks_submitted


def _multi_wave(r) -> bool:
    return _all_done(r) and r.mean_waves > 1


def _timed_out_multi_wave(r) -> bool:
    return r.jobs_timed_out > 0 and r.mean_waves > 1


COLUMNAR_ROWS = [
    # The four vectorised deciders, and two strategies that take the
    # per-task ``_decide_fallback``.
    _columnar_row(
        "ir", lambda: IterativeRedundancy(3), {},
        "233c2f84028e9807acdc91bfa400200019ca7c00d5be828a89160c7e755596e5", _multi_wave,
    ),
    _columnar_row(
        "pr", lambda: ProgressiveRedundancy(7), {},
        "f18c9c14ebfda2497b1c310d2b93ec5600a7396f4caf5e327b2a7ca16725c6b3", _multi_wave,
    ),
    _columnar_row(
        "tr", lambda: TraditionalRedundancy(7), dict(unresponsive_prob=0.1),
        "fe939f41f4aef351ae1c88b81ad9c416fce7dcbe724b6248faad6e4bb40adb3e", _timed_out_multi_wave,
    ),
    _columnar_row(
        "complex", lambda: ComplexIterativeRedundancy(0.7, 0.95), {},
        "2662ff2a2f1332ff5f76dd6ff37175a33b98cff9c8562d772024f12abd6eec5c", _multi_wave,
    ),
    _columnar_row(
        "fallback_no_redundancy", NoRedundancy, _SILENT,
        "ce41dff50ba18943151a13ce43551979a34931c0bcfef6bc947f3bb4fc6be05e", _timed_out_multi_wave,
    ),
    _columnar_row(
        "fallback_iterative", lambda: _PlainIterative(3),
        dict(_SILENT, reliability=_BETA, speed_spread=0.3),
        "4a271d1acdb278c397ee6252a226409667eff308945731dd2e4c191831144122", _timed_out_multi_wave,
    ),
    # Heterogeneous pools: speed spread, drawn reliabilities.
    _columnar_row(
        "heterogeneous", lambda: IterativeRedundancy(3), dict(reliability=_BETA, speed_spread=0.5),
        "d43037a20c269bf51baedc5766d95c8ca415b35bc4e98a71c8a81fae238d7e69", _all_done,
    ),
    _columnar_row(
        "heterogeneous_two_class", lambda: ProgressiveRedundancy(5),
        dict(reliability=TwoClassReliability(0.95, 0.4, 0.7), speed_spread=0.2),
        "fb97e5a26a8a664cbc3e2ed91096772e9d714e6307893d94ec590330503c7975", _all_done,
    ),
    # Silent nodes, churn (down to a one-node pool) and spot checks.
    _columnar_row(
        "silent_timeout", lambda: IterativeRedundancy(3), _SILENT,
        "1dfb34465dfc4a8ba968a16e2210c66ed41cc0c0a3179c8cd49996f72b198358",
        lambda r: r.jobs_timed_out > 0,
    ),
    _columnar_row(
        "churn", lambda: IterativeRedundancy(3),
        dict(_CHURN, reliability=_BETA, speed_spread=0.4, unresponsive_prob=0.1),
        "708e4b1e3636509d9cbd4475432bba553d09e94837e4a8d8e109cf43abcb4a6c",
        lambda r: r.nodes_joined > 0 and r.nodes_departed > 0,
    ),
    _columnar_row(
        "churn_homogeneous", lambda: ProgressiveRedundancy(7),
        dict(arrival_rate=2.0, departure_rate=3.0),
        "ac3d193456713228552ad98889431edb5e1bbf434f9e1024c5778a85aa4741b4",
        lambda r: r.nodes_joined > 0 and r.nodes_departed > 0,
    ),
    _columnar_row(
        "churn_drains_pool", lambda: IterativeRedundancy(3), dict(nodes=6, departure_rate=40.0),
        "2736ce560b9ed09eed936e9f8328089dbcc5cd3cd2b7de4e17173525d3a55ac6",
        lambda r: r.nodes_departed == 5 and r.nodes_joined == 0,
    ),
    _columnar_row(
        "spot", lambda: IterativeRedundancy(3), dict(spot_check_rate=0.2),
        "6d839aa3c31fdc8e486a47e7ccba050c4150f8a9ee4567922af54f69dffd98e2",
        lambda r: r.spot_checks > 0 and r.nodes_blacklisted > 0,
    ),
    _columnar_row(
        "spot_churn", lambda: ProgressiveRedundancy(5),
        dict(_CHURN, spot_check_rate=0.2, reliability=_BETA),
        "c931444e63782450f69256fdd02ed46fd257618b9c3aca993ccc9c72f2a94c98",
        lambda r: r.spot_checks > 0 and r.nodes_joined > 0,
    ),
    _columnar_row(
        "spot_silent", lambda: IterativeRedundancy(3), dict(_SILENT, spot_check_rate=0.2),
        "156f5a628cb5e498bfbd3a76d43ad3503cb6f7fbf4302266c4ed0e424df6d11e",
        lambda r: r.spot_checks > 0 and r.jobs_timed_out > 0,
    ),
    # ``max_time`` horizons, down to one so small that nothing completes.
    _columnar_row(
        "max_time", lambda: IterativeRedundancy(3), dict(max_time=2.8),
        "dc07cb097e210bca62ba5ad2ce0643f9c9d6913a08ddd593688f59dfa44e047b",
        lambda r: 0 < r.tasks_completed < r.tasks_submitted,
    ),
    _columnar_row(
        "max_time_timeouts", lambda: IterativeRedundancy(3),
        dict(max_time=4.2, unresponsive_prob=0.2, timeout=3.0),
        "223b543c416aac36115c612ab7577a7f6eba23597267f9aab71e3b87d9118459",
        lambda r: 0 < r.tasks_completed < r.tasks_submitted and r.jobs_timed_out > 0,
    ),
    _columnar_row(
        "max_time_every_regime", lambda: ProgressiveRedundancy(5),
        dict(
            _CHURN, max_time=3.1, spot_check_rate=0.2, unresponsive_prob=0.2,
            timeout=1.3, reliability=_BETA, speed_spread=0.2,
        ),
        "b7cb328e35e5a8b653560853e147e0ce39ef4944728da2965584865918054eef",
        lambda r: 0 < r.tasks_completed < r.tasks_submitted and r.spot_checks > 0,
    ),
    _columnar_row(
        "max_time_nothing_completes", lambda: IterativeRedundancy(3),
        dict(max_time=0.1, spot_check_rate=0.2),
        "d7dcae3700beadc973834f09d556f226bee59b3b12467edeee5144945669d9b9",
        lambda r: r.tasks_completed == 0 and r.makespan == 0.1,
    ),
    # A single-node pool, and ``initial_jobs`` above the pool size.
    _columnar_row(
        "single_node", lambda: IterativeRedundancy(3),
        dict(nodes=1, reliability=_BETA, speed_spread=0.3),
        "883043c992ed8a1b40b1d6142ca7c0ae894af86ff7ab6bf2ac436e68d9107818", _all_done,
    ),
    _columnar_row(
        "initial_jobs_exceed_pool", lambda: IterativeRedundancy(7), dict(nodes=2),
        "078fde707dda9b8026632ab08f5f4a427835a78df2d3b1b47fcbd6de626a997c",
        lambda r: r.max_jobs_per_task >= 7,
    ),
]


# -- Volunteer, grid, MapReduce, runner and shards ---------------------------


def _wordcount() -> MapReduceJob:
    return wordcount_job("to be or not to be that is the question " * 25, chunk_size=60)


def _append(output, value):
    return output + (value,)


def _upper() -> MapReduceJob:
    """Map outputs are plain strings, so a lost vote reduces the
    corruptor's chunk-tagged tuple (not a nudged number or count)."""
    chunks = tuple(f"chunk {index}" for index in range(20))
    return MapReduceJob(chunks=chunks, map_function=str.upper, reduce_function=_append, identity=())


def _words(chunk: str) -> frozenset:
    return frozenset(chunk.split())


def _union(output, value):
    """Sorted union of words; a lost vote adds the corruptor's tuple as text."""
    words = value if isinstance(value, frozenset) else {repr(value)}
    return tuple(sorted(set(output) | words))


def _vocabulary() -> MapReduceJob:
    """Map outputs are sets of words, whose ``repr`` lists them in hash order."""
    words = ("to be or not to be that is the question " * 3).split()
    chunks = tuple(" ".join(words[index:index + 4]) for index in range(20))
    return MapReduceJob(chunks=chunks, map_function=_words, reduce_function=_union, identity=())


OTHER_ROWS = [
    # A synthetic deployment; its clients' RNG streams are named by string.
    Row(
        "volunteer", "synthetic", lambda: IterativeRedundancy(2),
        dict(use_sat=False, tasks=40, seed=5),
        {"report": "7843e87932a9161249f365a593bb0a0a4bf71829733ca2842d4976d5159357a4"},
        lambda r: len(r.records) == 40,
    ),
    # Clients that cycle offline, drop jobs and compute, wired by hand:
    # every branch of the client's loop, up to the all-done stop.
    Row(
        "client", "cycling", lambda: TraditionalRedundancy(3),
        dict(
            seed=13, units=30, deadline=4.0, until=5_000.0,
            profiles=tuple(
                VolunteerNodeProfile(
                    node_id=i, mean_online=3.0 + i, mean_offline=2.0,
                    unresponsive_prob=0.15, seeded_fault_prob=0.1,
                )
                for i in range(8)
            ),
        ),
        {"report": "0f6d67de486b526d83d8dcf8e865ed79d5d229fdee2aab1fd8e26d60f285be77"},
        lambda m: (
            m["gaps"]["loop_top"] > 0 and m["gaps"]["mid_job"] > 0 and m["computed"] > 0
            and m["deadline_misses"] > 0 and sum(c[1] for c in m["clients"]) > 0
            and m["remaining"] == 0 and m["pending"] > 0
        ),
    ),
    # Per-site RNG streams are named by string.
    Row(
        "grid", "sites", lambda: IterativeRedundancy(2),
        dict(tasks=40, sites=4, slots_per_site=8, seed=5),
        {"report": "7c4011c416556da1763e911769c336a0ebfe7ecbb499e27cf56acda6f3812629"},
        lambda r: len(r.records) == 40,
    ),
    # Map outputs keyed by string; the corruptor inflates one count.
    Row(
        "mapreduce", "wordcount", lambda: IterativeRedundancy(2),
        dict(job=_wordcount, nodes=40, seed=13),
        {"report": "c110a84084526cae62e06898f8cd8f6f6443829dfd89048be4d1729143e11183"},
        lambda r: r.corrupted_chunks > 0,
    ),
    Row(
        "mapreduce", "upper", lambda: TraditionalRedundancy(1),
        dict(job=_upper, nodes=20, reliability=0.5, seed=3),
        {"report": "0e40b6f4221ac400c4f024f31497ec3ab540ba81e62a76b1ca34c02e9e5f1b99"},
        lambda r: r.corrupted_chunks > 0,
    ),
    # Set-valued map outputs: the corruptor's tag must not follow hash order.
    Row(
        "mapreduce", "vocabulary", lambda: TraditionalRedundancy(1),
        dict(job=_vocabulary, nodes=20, reliability=0.5, seed=3),
        {"report": "8ccbedea069196dcdebfde6946cb230272e3135e667b227bc4b8ea478b5d3717"},
        lambda r: r.corrupted_chunks > 0,
    ),
    # The retired ``decide_loops`` bench suite: the three decide loops
    # through the substrate-free runner, against its baseline checksum.
    Row(
        "runner", "decide_loops",
        lambda: {
            "iterative_d3": IterativeRedundancy(3),
            "progressive_k7": ProgressiveRedundancy(7),
            "traditional_k7": TraditionalRedundancy(7),
        },
        dict(tasks=4_000, reliability=0.7, seed=0),
        {"checksum": "d9d51614dcce72bc04fc4fceeda215c80e61c31d1157903b24af0262a1051abc"},
        lambda e: e["iterative_d3"].mean_waves > 1 and e["traditional_k7"].mean_waves == 1,
    ),
    # The retired quick ``scale`` bench suite at jobs=1, against its
    # baseline checksum; ``tests/parallel`` checks jobs=N against jobs=1.
    Row(
        "shards", "ir_four_shards", lambda: IterativeRedundancy(3),
        dict(_SCALE_QUICK),
        {"checksum": "0e30adf4a049f3fcac4efd3aee60512fd370c0646faa597a3a4f55c36fa0b49b"},
        lambda merged: merged["shards"] == 4 and merged["tasks"] == 20_000,
    ),
    # The retired quick ``scale_churn``, ``scale_spot`` and
    # ``scale_deadline`` bench suites at jobs=1, against their baseline
    # checksums: the same computation under one regime each.
    Row(
        "shards", "ir_four_shards_churn", lambda: IterativeRedundancy(3),
        dict(_SCALE_QUICK, arrival_rate=20.0, departure_rate=20.0),
        {"checksum": "a8fa87443db9978741a60a50a6d0372727822bb89737fb91a7e9c0149f689d35"},
        lambda merged: merged["nodes_joined"] > 0 and merged["nodes_departed"] > 0,
    ),
    Row(
        "shards", "ir_four_shards_spot", lambda: IterativeRedundancy(3),
        dict(_SCALE_QUICK, spot_check_rate=0.05),
        {"checksum": "ef2fb00ef153618ed29c9dd3fe1102703ac3f0b80e499aed16180d189cac01e1"},
        lambda merged: merged["spot_checks"] > 0,
    ),
    Row(
        "shards", "ir_four_shards_deadline", lambda: IterativeRedundancy(3),
        dict(_SCALE_QUICK, max_time=6.0),
        {"checksum": "a9dbc0188fa598ea2375a69ae6103cf8f5ec8637b73858dc82a0c960c4e9fbc8"},
        lambda merged: (
            merged["tasks"] < merged["tasks_submitted"] and merged["makespan"] <= 6.0
        ),
    ),
]

ROWS = DES_ROWS + COLUMNAR_ROWS + OTHER_ROWS

#: Case id -> (row, event queue or None): each row once per queue it lists.
CASES = {
    f"{row.substrate}-{row.name}" + (f"-{queue}" if queue else ""): (row, queue)
    for row in ROWS
    for queue in row.queues
}

#: Case id -> the digests its run must print.
PINNED = {case: row.digests for case, (row, _) in CASES.items()}


def digests() -> Dict[str, Dict[str, str]]:
    """Every case's digests, as computed by this interpreter."""
    return {case: run(row, queue).digests for case, (row, queue) in CASES.items()}


if __name__ == "__main__":
    print(json.dumps(digests(), sort_keys=True, indent=1))
