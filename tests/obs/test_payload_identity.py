# reprolint: disable-file=RL003 -- byte-exact golden comparisons are the point
"""Pinned :meth:`TelemetryRecorder.as_payload` digests for recorded DCA runs.

The digests are ``sha256(json.dumps(payload, sort_keys=True))`` taken
from the engine that counted every dispatch, completion, timeout and
spot check as it happened, built and copied every span's attrs, and
folded each job into the vote through a :class:`JobOutcome`.  They pin
that doing that work once per run (run-total counters, dropped spans
recorded by key only, votes folded from the bare value) changes no
recorded byte:

* the three paper strategies, uncapped and with span/event caps below
  the job count (so most spans are dropped);
* churn, and churn under a ``max_time`` horizon, which leaves spans
  open when the run stops;
* spot checks and silent nodes, which drive the spot-check and timeout
  counters, and spot checks under span/event caps;
* a node-aware strategy (credibility with spot checks).

Every scenario runs on both event queues, which must record the same
bytes.
"""

import hashlib
import json

import pytest

from repro.core import (
    CredibilityManager,
    CredibilityStrategy,
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.dca import DcaConfig
from repro.dca.simulation import DcaSimulation
from repro.obs import TelemetryRecorder
from repro.sim.events import QUEUE_KINDS

_CHURN = dict(arrival_rate=0.8, departure_rate=0.8)
_CAPS = dict(max_spans=100, max_events=40)


def _credibility():
    return CredibilityStrategy(CredibilityManager(), target=0.95)


#: (scenario, strategy factory, DcaConfig overrides, recorder caps,
#: payload digest, a check that the run really takes the path the
#: scenario is named for).
PINNED = [
    (
        "tr",
        lambda: TraditionalRedundancy(5),
        {},
        {},
        "4492131f7db5f4fc7d421cc40e50ca99c5a7a9f4d135cb168e2a09cdfad1c0cd",
        lambda payload: payload["dropped_spans"] == 0,
    ),
    (
        "pr",
        lambda: ProgressiveRedundancy(5),
        {},
        {},
        "ad538b3872e41b1faba8e33faeac0e70d1245266562c4c4725703408bca5fb1b",
        lambda payload: payload["dropped_spans"] == 0,
    ),
    (
        "ir",
        lambda: IterativeRedundancy(3),
        {},
        {},
        "5d569b243c10080bbae840c28d2fcb059ee1365d12210449edbd06c279c340de",
        lambda payload: payload["dropped_spans"] == 0,
    ),
    (
        "tr_capped",
        lambda: TraditionalRedundancy(5),
        {},
        _CAPS,
        "a93fdc498bcc7a96aae4789a3038dd948050a729284913e8473e6b5ff813dcc2",
        lambda payload: payload["dropped_spans"] > 0 and payload["dropped_events"] == 0,
    ),
    (
        "pr_capped",
        lambda: ProgressiveRedundancy(5),
        {},
        _CAPS,
        "c3113f7a60fe5cfbd6a5166d114be9f2ea22abb6c44ea561392afbcf0f0bd3ae",
        lambda payload: payload["dropped_spans"] > 0 and payload["dropped_events"] > 0,
    ),
    (
        "ir_capped",
        lambda: IterativeRedundancy(3),
        {},
        _CAPS,
        "c5e8f14714bd54b0292381d2c1be5fb447ce577119dc9bb3614faa5e838fee4a",
        lambda payload: payload["dropped_spans"] > 0 and payload["dropped_events"] > 0,
    ),
    (
        "churn",
        lambda: IterativeRedundancy(2),
        _CHURN,
        {},
        "625a99edb91de0189aa68e16b7b4d57166bd8638886d2b24ef4bcb588c7f4093",
        lambda payload: "dca.timeout" in payload["metrics"],
    ),
    (
        "churn_max_time",
        lambda: IterativeRedundancy(2),
        dict(_CHURN, max_time=20.0),
        {},
        "2770cd6f4199d7b0079c687740a8c8683d006125be217a632a8f671da7649756",
        lambda payload: payload["open_spans"] > 0,
    ),
    (
        "churn_max_time_capped",
        lambda: IterativeRedundancy(2),
        dict(_CHURN, max_time=20.0),
        _CAPS,
        "57ab3e9ad76c47131018060bcbf1c5b6900fcadbfa20d8cb1b0794fb6083eb1d",
        lambda payload: payload["open_spans"] > 0 and payload["dropped_spans"] > 0,
    ),
    (
        "spot_checks",
        lambda: IterativeRedundancy(2),
        dict(spot_check_rate=0.15),
        {},
        "be468d24e1a3e585190f98c3cfa3d201d18db3a65f38e1da28080494d7111f9c",
        lambda payload: "dca.spot_check" in payload["metrics"],
    ),
    (
        "silent_nodes",
        lambda: IterativeRedundancy(2),
        dict(unresponsive_prob=0.15),
        {},
        "f6b0d12e90b2a72122fc23152471605ebb011bc21ad3ff3158f1ccda64f982f7",
        lambda payload: "dca.timeout" in payload["metrics"],
    ),
    (
        "credibility_spot_checks",
        _credibility,
        dict(spot_check_rate=0.1),
        {},
        "7bb5623c68e2e4924571aa6c8703ccce6c77a0aeeed95509030fa33514f345dd",
        lambda payload: "dca.spot_check" in payload["metrics"],
    ),
    (
        "ir_spot_checks_capped",
        lambda: IterativeRedundancy(3),
        dict(spot_check_rate=0.15),
        _CAPS,
        "958195ca25efc7fdc06818b36cf1f8f15f673e62c0f3234906de0fb02e468ad8",
        lambda payload: payload["dropped_spans"] > 0,
    ),
]


def recorded_payload(factory, overrides, caps, queue):
    """The recorder payload of one small seeded run."""
    recorder = TelemetryRecorder(**caps)
    config = DcaConfig(
        strategy=factory(),
        tasks=60,
        nodes=20,
        reliability=0.7,
        seed=2011,
        queue=queue,
        **overrides,
    )
    DcaSimulation(config, recorder=recorder).run()
    return recorder.as_payload()


def payload_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("queue", QUEUE_KINDS)
@pytest.mark.parametrize(
    "name,factory,overrides,caps,expected,takes_path",
    PINNED,
    ids=[entry[0] for entry in PINNED],
)
def test_payload_matches_pinned_digest(
    name, factory, overrides, caps, expected, takes_path, queue
):
    payload = recorded_payload(factory, overrides, caps, queue)
    assert takes_path(payload)
    assert payload_digest(payload) == expected
