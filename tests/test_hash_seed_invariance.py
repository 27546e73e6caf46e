"""Same seed, any ``PYTHONHASHSEED``: every substrate replays bit for bit.

String hashing is salted per interpreter, so iterating a set (or a dict
built from one) of strings visits its members in an order that changes
with ``PYTHONHASHSEED``.  If such an order ever reaches a draw, an event
order or a float reduction, two runs with the same simulation seed
diverge across interpreters while every in-process identity test still
passes.  This test runs the same probes in two fresh interpreters with
different hash seeds and requires equal digests of:

* a churned DES report (the ``iterative_d2_churn`` golden config);
* the uncapped :class:`~repro.obs.TelemetryRecorder` payload of that run;
* a :func:`~repro.dca.run_columnar_dca` report with churn and spot checks;
* a small synthetic volunteer deployment (:func:`~repro.volunteer.run_volunteer`);
* a small grid run (:func:`~repro.grid.run_grid`), whose per-site RNG
  streams are named by string;
* a small word-count MapReduce job (:func:`~repro.mapreduce.run_mapreduce`),
  whose map outputs are keyed by string.

Together these cover every substrate the same-seed sanitizer
(:mod:`repro.lint.sanitizer`) replays.

Run this file directly (``python tests/test_hash_seed_invariance.py``)
to print the probe digests as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: The ``iterative_d2_churn`` golden (tests/lint/test_golden_fingerprints.py):
#: churn and silent nodes drive cancellation, compaction and deadlines.
CHURN_CONFIG = dict(
    tasks=40,
    nodes=15,
    reliability=0.65,
    seed=99,
    arrival_rate=0.5,
    departure_rate=0.5,
    unresponsive_prob=0.1,
)

HASH_SEEDS = ("0", "1")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def probe_digests() -> dict:
    """Digests of one run per substrate, all from fixed simulation seeds."""
    from repro.core import IterativeRedundancy
    from repro.dca import DcaConfig, run_columnar_dca, run_dca
    from repro.grid import GridConfig, run_grid
    from repro.mapreduce import run_mapreduce, wordcount_job
    from repro.obs import TelemetryRecorder
    from repro.volunteer import VolunteerConfig, run_volunteer

    report = run_dca(DcaConfig(strategy=IterativeRedundancy(2), **CHURN_CONFIG))
    recorder = TelemetryRecorder()
    run_dca(DcaConfig(strategy=IterativeRedundancy(2), **CHURN_CONFIG), recorder=recorder)
    columnar = run_columnar_dca(
        DcaConfig(
            strategy=IterativeRedundancy(3),
            tasks=2000,
            nodes=200,
            reliability=0.7,
            seed=7,
            arrival_rate=2.0,
            departure_rate=2.0,
            spot_check_rate=0.1,
        )
    )
    volunteer = run_volunteer(
        VolunteerConfig(strategy=IterativeRedundancy(2), use_sat=False, tasks=40, seed=5)
    )
    grid = run_grid(
        GridConfig(strategy=IterativeRedundancy(2), tasks=40, sites=4, slots_per_site=8, seed=5)
    )
    mapreduce = run_mapreduce(
        wordcount_job("to be or not to be that is the question " * 25, chunk_size=60),
        IterativeRedundancy(2),
        nodes=40,
        seed=13,
    )
    return {
        "des_report": _sha(report.to_json()),
        "recorder_payload": _sha(json.dumps(recorder.as_payload(), sort_keys=True)),
        "columnar_report": _sha(repr(columnar)),
        "volunteer_report": _sha(volunteer.to_json()),
        "grid_report": _sha(grid.to_json()),
        "mapreduce_report": _sha(
            f"{mapreduce.map_report.to_json()}\n{mapreduce.output!r}"
        ),
    }


def _digests_under(hash_seed: str) -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, __file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


def test_digests_do_not_depend_on_the_hash_seed():
    from tests.lint.test_golden_fingerprints import GOLDENS

    first, second = (_digests_under(seed) for seed in HASH_SEEDS)
    assert set(first) == {
        "des_report",
        "recorder_payload",
        "columnar_report",
        "volunteer_report",
        "grid_report",
        "mapreduce_report",
    }
    assert first == second
    # The DES probes are the pinned golden run, not a look-alike.
    ((_, _, config, recorded, bare),) = [g for g in GOLDENS if g[0] == "iterative_d2_churn"]
    assert config == CHURN_CONFIG
    assert (first["recorder_payload"], first["des_report"]) == (recorded, bare)


if __name__ == "__main__":
    print(json.dumps(probe_digests(), sort_keys=True))
