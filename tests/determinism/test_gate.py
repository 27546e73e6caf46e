"""Same seed, same bytes: one gate over the probe table in ``table.py``.

Every case is checked three ways:

* **pinned** -- its digests equal the table's, and the run takes the path
  its row is named for;
* **replay** -- two runs in one process record the same canonical lines
  and final metrics; a failure names the first diverging line;
* **hash seed** -- the table, run as a script in two fresh interpreters
  under ``PYTHONHASHSEED`` 0 and 1, prints the pinned digests in both.
  String hashing is salted per interpreter, so an iteration over a set
  of strings that reaches a draw or a reduction shows only here.

Once per substrate, the next seed must change every digest (a seed that
is silently ignored would pin a constant).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dca.columnar import _DECIDERS
from repro.dca.node import Node
from tests.determinism import table
from tests.determinism.table import CASES, PINNED, ROWS, Run

HASH_SEEDS = ("0", "1")


def divergence(reference: Run, observed: Run):
    """Where two runs of one case first disagree, or ``None``."""
    for index, (expected, got) in enumerate(zip(reference.lines, observed.lines)):
        if expected != got:
            return f"first divergence at line #{index}: expected {expected}, observed {got}"
    if len(reference.lines) != len(observed.lines):
        index = min(len(reference.lines), len(observed.lines))
        longer = max(reference.lines, observed.lines, key=len)
        return f"runs diverged at line #{index}: one ended, the other recorded {longer[index]}"
    ref = dict(reference.metrics, digests=reference.digests)
    obs = dict(observed.metrics, digests=observed.digests)
    # repr, not ==: a NaN metric never equals itself.
    changed = sorted(key for key in ref.keys() | obs.keys() if repr(ref.get(key)) != repr(obs.get(key)))
    if changed:
        return (
            f"final metrics diverged: expected {[ref.get(key) for key in changed]!r}, "
            f"observed {[obs.get(key) for key in changed]!r} for {changed}"
        )
    return None


@pytest.mark.parametrize("case", CASES)
def test_pinned(case):
    row, queue = CASES[case]
    outcome = table.run(row, queue)
    assert row.takes_path(outcome.evidence), f"{case} does not take its path"
    if row.name.startswith("fallback"):
        assert type(row.strategy()) not in _DECIDERS
    assert outcome.digests == row.digests, (
        f"{case}: same-seed output diverged from the pinned digest -- "
        "the change altered simulation behaviour"
    )


@pytest.mark.parametrize("case", CASES)
def test_replay(case):
    row, queue = CASES[case]
    found = divergence(table.run(row, queue), table.run(row, queue))
    assert found is None, f"{case}: {found}"


def _printed_digests(hash_seed: str) -> subprocess.Popen:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (src, env.get("PYTHONPATH")) if part)
    return subprocess.Popen(
        [sys.executable, table.__file__], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )


def test_hash_seed():
    processes = {seed: _printed_digests(seed) for seed in HASH_SEEDS}
    try:
        for seed, process in processes.items():
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
            printed = json.loads(out)
            wrong = {case: printed.get(case) for case in PINNED if printed.get(case) != PINNED[case]}
            assert printed.keys() == PINNED.keys() and not wrong, f"PYTHONHASHSEED={seed}: {wrong}"
    finally:
        for process in processes.values():
            process.kill()
            process.wait()


@pytest.mark.parametrize("substrate", sorted({row.substrate for row in ROWS}))
def test_next_seed_changes_every_digest(substrate):
    row = next(row for row in ROWS if row.substrate == substrate)
    moved = table.run(row, row.queues[0], seed_offset=1).digests
    assert moved.keys() == row.digests.keys()
    assert all(moved[name] != row.digests[name] for name in moved)


def test_replay_names_the_first_diverging_line(monkeypatch):
    # A job-duration perturbation drawn from the process-global random
    # module: two same-seed runs consume different global draws.
    original = Node.job_duration

    def leaky_duration(self, base_duration):
        return original(self, base_duration) + random.random() * 0.01  # reprolint: disable=RL001 -- the injected bug

    monkeypatch.setattr(Node, "job_duration", leaky_duration)
    row, queue = CASES["des-ir-heap"]
    found = divergence(table.run(row, queue), table.run(row, queue))
    assert found is not None and found.startswith("first divergence at line #"), found


LINES = ["t=0.0 a", "t=1.0 b"]
REFERENCE = Run({"d": "x"}, LINES, {"cost": 2.0, "mean": float("nan")}, None)


def test_identical_captures_have_no_divergence():
    assert divergence(REFERENCE, REFERENCE._replace(metrics={"cost": 2.0, "mean": float("nan")})) is None


def test_length_divergence():
    assert divergence(REFERENCE, REFERENCE._replace(lines=LINES[:1])) == (
        "runs diverged at line #1: one ended, the other recorded t=1.0 b"
    )


def test_metric_divergence_when_traces_match():
    assert "for ['cost']" in divergence(REFERENCE, REFERENCE._replace(metrics={"cost": 3.0, "mean": float("nan")}))
    assert "for ['digests']" in divergence(REFERENCE, REFERENCE._replace(digests={"d": "y"}))
