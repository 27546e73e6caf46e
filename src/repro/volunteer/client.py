"""Volunteer clients: poll, compute, report (or silently vanish).

Each client is a chain of event callbacks on the simulator, one per
stage of its poll / compute / report loop.  Its failure behaviour
mirrors the three failure classes of the paper's BOINC experiment
(Section 4.1):

1. *seeded* failures -- with probability ``seeded_fault_prob`` (0.3 in the
   paper) the client reports the colluding wrong result;
2. *unresponsiveness* -- with probability ``unresponsive_prob`` the client
   never reports, and the server's deadline expires;
3. *natural* failures -- with probability ``natural_fault_prob`` the
   client reports the wrong result for environmental reasons the
   experimenter did not seed (the paper could not know these rates on
   PlanetLab; here they are drawn per node by the testbed generator and
   deliberately not exposed to the algorithms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.types import ResultValue
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.volunteer.server import JobAssignment, VolunteerServer


@dataclass(frozen=True)
class VolunteerNodeProfile:
    """Static description of one volunteer machine.

    Attributes:
        node_id: Identity the scheduler sees.
        speed_factor: Job-duration multiplier (heterogeneous machines).
        seeded_fault_prob: Experimenter-seeded wrong-result probability.
        natural_fault_prob: Environment-caused wrong-result probability.
        unresponsive_prob: Probability of never reporting a job.
        poll_interval: Mean delay between scheduler polls when idle.
        platform: Equivalence-class label for homogeneous redundancy
            (Section 5.3); nodes of different platforms may legitimately
            produce bitwise-different numeric results.
        mean_online / mean_offline: Availability cycling -- volunteers
            come and go (the machine is in use, asleep, or disconnected).
            When ``mean_offline`` is positive the client alternates
            exponentially distributed online/offline periods; a job in
            flight when the machine goes offline is finished only after
            it returns (often blowing the server's deadline), just like
            real BOINC hosts.  ``mean_offline = 0`` means always online.
    """

    node_id: int
    speed_factor: float = 1.0
    seeded_fault_prob: float = 0.0
    natural_fault_prob: float = 0.0
    unresponsive_prob: float = 0.0
    poll_interval: float = 0.2
    platform: int = 0
    mean_online: float = 0.0
    mean_offline: float = 0.0

    def __post_init__(self) -> None:
        for name in ("seeded_fault_prob", "natural_fault_prob", "unresponsive_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.speed_factor <= 0:
            raise ValueError(f"speed factor must be positive, got {self.speed_factor}")
        if self.poll_interval <= 0:
            raise ValueError(f"poll interval must be positive, got {self.poll_interval}")
        if self.mean_online < 0 or self.mean_offline < 0:
            raise ValueError("availability means must be non-negative")
        if self.mean_offline > 0 and self.mean_online <= 0:
            raise ValueError("cycling availability needs a positive mean_online")

    @property
    def cycles_availability(self) -> bool:
        return self.mean_offline > 0.0

    @property
    def availability(self) -> float:
        """Long-run fraction of time the machine is online."""
        if not self.cycles_availability:
            return 1.0
        return self.mean_online / (self.mean_online + self.mean_offline)

    @property
    def effective_reliability(self) -> float:
        """P(correct | reported): what the paper calls the node's r
        contribution.  Unknown to the algorithms; used only for scoring
        and the Figure 5(b) r-estimation cross-check."""
        return (1.0 - self.seeded_fault_prob) * (1.0 - self.natural_fault_prob)


class VolunteerClient:
    """Drives one volunteer's poll/compute/report loop.

    The loop runs as three event callbacks: :meth:`_wake` at the top
    (go offline, or sleep one jittered poll), :meth:`_poll` (ask the
    server for work) and :meth:`_report` (upload a computed result,
    which rides on the event's payload).  The first wake-up is an event
    at the construction time, so the constructor returns before the
    client acts.

    Args:
        sim: The simulator.
        server: The work-unit server to poll.
        profile: This volunteer's machine profile.
        rng: Private randomness (derive from the sim registry).
        compute: Optional real computation: called with the work unit's
            payload and must return the result value.  When ``None`` the
            client "computes" by reporting the unit's ground truth (the
            simulated-work mode the paper's XDEVS jobs use).
        value_transform: Optional post-processing of the computed value
            (used to inject platform-specific numeric noise for the
            homogeneous-redundancy study).

    Attributes:
        alive: True until a poll finds the server without open work; the
            client then schedules nothing more.
    """

    def __init__(
        self,
        sim: Simulator,
        server: VolunteerServer,
        profile: VolunteerNodeProfile,
        rng: random.Random,
        *,
        compute: Optional[Callable[[object], ResultValue]] = None,
        value_transform: Optional[Callable[[ResultValue, "VolunteerNodeProfile"], ResultValue]] = None,
    ) -> None:
        self.sim = sim
        self.server = server
        self.profile = profile
        self.rng = rng
        self.compute = compute
        self.value_transform = value_transform
        self.alive = True
        self.jobs_reported = 0
        self.jobs_dropped = 0
        self.offline_periods = 0
        self._online_until = (
            sim.now + rng.expovariate(1.0 / profile.mean_online)
            if profile.cycles_availability
            else float("inf")
        )
        sim.schedule_after(0.0, self._wake)

    # ------------------------------------------------------------------

    def _result_for(self, assignment: JobAssignment) -> ResultValue:
        unit = assignment.unit
        if self.compute is not None:
            value = self.compute(unit.payload)
        else:
            value = unit.true_value
        # Seeded and natural faults flip the result to the colluding wrong
        # value (worst case, Section 2.2).
        if self.rng.random() < self.profile.seeded_fault_prob:
            value = unit.wrong_value
        elif self.rng.random() < self.profile.natural_fault_prob:
            value = unit.wrong_value
        if self.value_transform is not None:
            value = self.value_transform(value, self.profile)
        return value

    def _offline_gap(self) -> float:
        """Duration of one offline period; refreshes the online window."""
        self.offline_periods += 1
        gap = self.rng.expovariate(1.0 / self.profile.mean_offline)
        self._online_until = (
            self.sim.now + gap + self.rng.expovariate(1.0 / self.profile.mean_online)
        )
        return gap

    def _wake(self, event: Optional[Event] = None) -> None:
        """Top of the loop; the other stages call it directly to loop."""
        if self.profile.cycles_availability and self.sim.now >= self._online_until:
            # The machine left (in use / asleep / disconnected).
            self.sim.schedule_after(self._offline_gap(), self._wake)
        else:
            # Idle poll with jitter so clients do not synchronise.
            delay = self.rng.uniform(0.5, 1.5) * self.profile.poll_interval
            self.sim.schedule_after(delay, self._poll)

    def _poll(self, event: Event) -> None:
        if not self.server.has_open_work:
            self.alive = False
            return
        profile = self.profile
        assignment = self.server.request_work(profile.node_id)
        if assignment is None:
            self._wake()
            return
        duration = self.rng.uniform(0.5, 1.5) * profile.speed_factor
        if self.rng.random() < profile.unresponsive_prob:
            # Vanish for this job: burn the wall-clock but never report.
            self.jobs_dropped += 1
            self.sim.schedule_after(duration, self._wake)
            return
        if profile.cycles_availability and self.sim.now + duration > self._online_until:
            # The machine suspends mid-job and resumes after its offline
            # period (one gap; offline periods dwarf job durations).
            # Deadlines may well expire meanwhile.
            duration += self._offline_gap()
        self.sim.schedule_after(duration, self._report, payload=assignment)

    def _report(self, event: Event) -> None:
        assignment: JobAssignment = event.payload
        value = self._result_for(assignment)
        # StopSimulation from the server's all-done hook propagates from
        # here and ends the run.
        self.server.report_result(assignment, self.profile.node_id, value)
        self.jobs_reported += 1
        self._wake()
