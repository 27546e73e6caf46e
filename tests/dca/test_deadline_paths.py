"""Pinned reports for every path a job's deadline can take.

A job's deadline event is pushed at assignment only when it can be the
first thing that happens to the job (a silent job, or a completion no
earlier than the deadline).  Otherwise its place in the event order is
reserved and the event is pushed only if the node leaves mid-job.  The
digests below were taken from the engine that pushed every deadline
eagerly and cancelled it on completion, so they pin that the deferral
changes no report:

* churn (with and without a ``max_time`` horizon) drives the deferred
  path, where a departed node's completion pushes the reserved deadline;
* slow nodes with a tight timeout drive the eager path, where the
  deadline fires before the completion would;
* unresponsive nodes drive silent jobs, whose deadline is their only
  event;
* spot checks run both kinds of job through the same dispatch.
"""

import hashlib

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.dca import DcaConfig, run_dca
from repro.dca.node import Node
from repro.dca.pool import NodePool
from repro.dca.taskserver import TaskServer
from repro.dca.workload import Task
from repro.sim.engine import Simulator
from repro.sim.events import QUEUE_KINDS

_CHURN = dict(arrival_rate=0.8, departure_rate=0.8)

#: (scenario, DcaConfig overrides, sha256 of ``DcaReport.to_json()``,
#: a check that the run really takes the path the scenario is named for).
PINNED = [
    (
        "churn",
        _CHURN,
        "437e3b04d801d3d0266b27d7debfa70f654343657e1bc22324905c86732e2c50",
        lambda report: report.nodes_departed > 0 and report.jobs_timed_out > 0,
    ),
    (
        "churn_max_time",
        dict(_CHURN, max_time=20.0),
        "143c897e91e8b62ce9fd155cfa345ad94190f3eaa18311c6253f60ce8fc79d4a",
        lambda report: report.tasks_completed < report.tasks_submitted,
    ),
    (
        "unresponsive",
        dict(unresponsive_prob=0.15),
        "e6eca3d143cede3b7fd05b72c95e5db68d8d0e225b5b10010fb5becf256bcbf3",
        lambda report: report.jobs_timed_out > 0,
    ),
    (
        "slow_nodes",
        dict(speed_spread=0.9, timeout=1.2),
        "12439c7780a813903701fe827afb5fd0d32f41a2692b7b780e66cbd442abbf7a",
        lambda report: report.jobs_timed_out > 0,
    ),
    (
        "spot_checks",
        dict(spot_check_rate=0.15),
        "9cd73aeb1b4b70a9db91f64f4e2e0ba943a4af3e3e3cf9086ce7edf5007c730a",
        lambda report: report.spot_checks > 0,
    ),
]


@pytest.mark.parametrize("queue", QUEUE_KINDS)
@pytest.mark.parametrize(
    "name,overrides,expected,takes_path", PINNED, ids=[entry[0] for entry in PINNED]
)
def test_report_matches_pinned_digest(name, overrides, expected, takes_path, queue):
    report = run_dca(
        DcaConfig(
            strategy=IterativeRedundancy(2),
            tasks=60,
            nodes=20,
            reliability=0.7,
            seed=2011,
            queue=queue,
            **overrides,
        )
    )
    assert takes_path(report)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == expected


def test_deadline_fires_first_when_it_ties_the_completion():
    # Completion and deadline land on the same float time.  The deadline
    # always won that tie, so the job times out.
    sim = Simulator(seed=0)
    pool = NodePool()
    pool.join(Node(node_id=pool.allocate_id(), reliability=1.0))
    server = TaskServer(sim, pool, TraditionalRedundancy(1), timeout=1.0)
    server.submit(Task(task_id=0, nominal_duration=1.0))
    sim.run(until=1.5)
    assert server.jobs_timed_out == 1
    assert server.total_jobs_dispatched == 2  # the timed-out job was replaced
    assert server.records == []
