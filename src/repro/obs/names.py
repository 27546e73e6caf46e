"""Canonical telemetry names: one vocabulary for spans, events, metrics.

Every instrumented layer refers to these constants instead of inline
strings, so the complete telemetry schema is auditable in one place.  A
DES task's lifecycle is the ``dca.task`` span (submit to accept), one
``dca.job`` span per job (dispatch to complete or timeout) and a
``dca.decide`` event per extra wave;
:func:`repro.obs.export.task_timeline` renders them for one task.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Span names (simulated-time intervals).
# ---------------------------------------------------------------------------

#: One task's life from submission to accepted verdict (key: task id).
DCA_TASK_SPAN = "dca.task"
#: One job's life from dispatch to completion/timeout (key: node id --
#: unique among open spans because a node runs at most one job at a time).
DCA_JOB_SPAN = "dca.job"

# ---------------------------------------------------------------------------
# Instant event names.
# ---------------------------------------------------------------------------

#: The strategy chose to extend a task with another wave.
DCA_DECIDE_EVENT = "dca.decide"

# ---------------------------------------------------------------------------
# Metric names.  Counters unless noted.
# ---------------------------------------------------------------------------

#: Tasks submitted to the task server.
DCA_SUBMITS = "dca.submit"
#: Jobs handed to a node (spot-checks included).
DCA_DISPATCHES = "dca.dispatch"
#: Counted job completions (abandoned jobs and dead nodes excluded).
DCA_COMPLETES = "dca.complete"
#: Jobs that hit their deadline.
DCA_TIMEOUTS = "dca.timeout"
#: Tasks accepted with a verdict.
DCA_ACCEPTS = "dca.accept"
#: Spot-check jobs issued.
DCA_SPOT_CHECKS = "dca.spot_check"
#: Strategy decisions, labeled by strategy and outcome (accept/extend).
DCA_DECISIONS = "dca.decisions"
#: Histogram: jobs per dispatched wave (labeled first wave vs follow-up).
DCA_WAVE_SIZE = "dca.wave_size"
#: Histogram: accepted-task response times (first dispatch to verdict).
DCA_RESPONSE_TIME = "dca.response_time"
#: Histogram: counted jobs consumed per accepted task.
DCA_JOBS_PER_TASK = "dca.jobs_per_task"
#: Gauge: simulated makespan of a finished run.
DCA_MAKESPAN = "dca.makespan"

#: Events popped by the simulator run loop.
SIM_EVENTS = "sim.events_processed"
#: Gauge: physical heap entries left when the run loop returned.
SIM_HEAP_SIZE = "sim.heap_size"
#: Event-queue compactions (cancelled-entry sweeps) during the run.
SIM_COMPACTIONS = "sim.compactions"

__all__ = [
    "DCA_ACCEPTS",
    "DCA_COMPLETES",
    "DCA_DECIDE_EVENT",
    "DCA_DECISIONS",
    "DCA_DISPATCHES",
    "DCA_JOBS_PER_TASK",
    "DCA_JOB_SPAN",
    "DCA_MAKESPAN",
    "DCA_RESPONSE_TIME",
    "DCA_SPOT_CHECKS",
    "DCA_SUBMITS",
    "DCA_TASK_SPAN",
    "DCA_TIMEOUTS",
    "DCA_WAVE_SIZE",
    "SIM_COMPACTIONS",
    "SIM_EVENTS",
    "SIM_HEAP_SIZE",
]
