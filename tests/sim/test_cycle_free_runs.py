"""No DES substrate makes cyclic garbage while its event loop runs.

``Simulator.run`` pauses the cyclic collector for the length of the
loop.  That costs nothing only while every object the loop frees is
freed by reference counting: a cycle made mid-run would wait, with
everything it holds, until the loop ends.  Each case below wraps
``Simulator.run`` so that, right after the loop and while the substrate
still holds its state, a full collection under ``gc.DEBUG_SAVEALL``
counts what became unreachable; the count must be 0.

A finished run must leave nothing for the collector either: the last
case runs a MapReduce job under churn, whose map phase ends through
``DcaSimulation.run`` like every DCA run.
"""

import collections
import gc

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.dca import DcaConfig, run_dca
from repro.mapreduce import run_mapreduce, wordcount_job
from repro.obs import TelemetryRecorder
from repro.sim import Simulator
from repro.sim.events import QUEUE_KINDS
from tests.determinism import table

#: DCA runs: churn and spot checks, a horizon that leaves jobs in flight,
#: and silent nodes whose jobs end at their deadlines.
DCA_CASES = {
    "plain": dict(strategy=TraditionalRedundancy(5)),
    "churn-spot-checks": dict(
        strategy=IterativeRedundancy(3), arrival_rate=5.0, departure_rate=5.0,
        spot_check_rate=0.1,
    ),
    "horizon": dict(strategy=IterativeRedundancy(3), max_time=20.0),
    "unresponsive": dict(strategy=IterativeRedundancy(3), unresponsive_prob=0.1),
}

#: Rows of the determinism probe table, one per other DES substrate.
TABLE_CASES = ("client-cycling", "volunteer-synthetic", "grid-sites", "mapreduce-wordcount")


@pytest.fixture
def garbage_per_loop(monkeypatch):
    """Each ``Simulator.run`` call's cyclic garbage: (count, commonest types)."""
    found = []
    loop = Simulator.run

    def run_then_collect(self, *args, **kwargs):
        gc.collect()  # what set-up left behind is not the loop's
        loop(self, *args, **kwargs)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            count = gc.collect()
            kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
            found.append((count, kinds.most_common(5)))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    monkeypatch.setattr(Simulator, "run", run_then_collect)
    return found


def _assert_no_garbage(found):
    assert found, "the substrate never entered Simulator.run"
    assert all(count == 0 for count, _ in found), found


@pytest.mark.parametrize("queue", QUEUE_KINDS)
@pytest.mark.parametrize("case", sorted(DCA_CASES))
def test_dca_loop_makes_no_cyclic_garbage(case, queue, garbage_per_loop):
    config = DcaConfig(
        tasks=1000, nodes=100, reliability=0.7, seed=3, queue=queue, **DCA_CASES[case]
    )
    report = run_dca(config, recorder=TelemetryRecorder())
    assert report.total_jobs_dispatched > config.nodes
    _assert_no_garbage(garbage_per_loop)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_other_substrates_make_no_cyclic_garbage(case, garbage_per_loop):
    row, queue = table.CASES[case]
    run = table.run(row, queue)
    assert row.takes_path(run.evidence)
    _assert_no_garbage(garbage_per_loop)


def test_finished_mapreduce_churn_run_is_freed_by_reference_counting():
    job = wordcount_job(" ".join(f"w{index % 97}" for index in range(2000)), chunk_size=60)
    gc.collect()
    gc.disable()
    try:
        report = run_mapreduce(
            job, IterativeRedundancy(2), nodes=40, seed=13,
            arrival_rate=2.0, departure_rate=2.0,
        )
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert report.map_report.nodes_departed > 0
