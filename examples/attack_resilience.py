#!/usr/bin/env python
"""Attack resilience: reputation games vs stateless voting.

Two classic volunteer-computing attacks from the paper's Section 5.1:

1. **Whitewashing** -- malicious nodes caught by spot-checks shed their
   blacklisted identities and rejoin fresh.  Credibility-based fault
   tolerance (Sarmenta) depends on reputations sticking; iterative
   redundancy keeps no per-node state, so the attack has nothing to wash.

2. **Earn-trust-then-defect** -- nodes behave honestly until BOINC-style
   adaptive replication trusts them enough to skip replication, then
   defect.  Iterative redundancy never extends that credit.

Run:
    python examples/attack_resilience.py
"""

import random

from repro.core import (
    AdaptiveReplication,
    CredibilityManager,
    CredibilityStrategy,
    IterativeRedundancy,
)
from repro.core.distributions import TwoClassReliability
from repro.dca import (
    ByzantineCollusion,
    DcaConfig,
    DcaSimulation,
    SpotCheckEvading,
    run_dca,
)
from repro.experiments.ablations import _install_whitewasher


def whitewashing_demo() -> None:
    print("Attack 1: fooling credibility-based fault tolerance")
    print("-" * 68)
    population = TwoClassReliability(good_r=0.95, faulty_r=0.0, faulty_fraction=0.3)

    regimes = (
        ("naive attackers", False, False),
        ("check-evading attackers", True, False),
        ("evading + whitewashing", True, True),
    )
    for label, evading, whitewash in regimes:
        manager = CredibilityManager(assumed_fault_fraction=0.3)
        strategy = CredibilityStrategy(manager, target=0.97)
        simulation = DcaSimulation(
            DcaConfig(
                strategy=strategy,
                tasks=2_000,
                nodes=300,
                reliability=population,
                seed=11,
                spot_check_rate=0.15,
                failure_model=SpotCheckEvading(ByzantineCollusion()) if evading else None,
            )
        )
        if whitewash:
            _install_whitewasher(simulation, manager)
        report = simulation.run()
        print(
            f"  credibility vs {label:24s} reliability {report.system_reliability:.4f}  "
            f"cost {report.cost_factor:5.2f}x  (+{report.spot_checks} spot-checks, "
            f"{manager.blacklist_events} blacklist events)"
        )
    ir_report = run_dca(
        DcaConfig(
            strategy=IterativeRedundancy(5),
            tasks=2_000,
            nodes=300,
            reliability=population,
            seed=11,
        )
    )
    print(
        f"  iterative d=5 (stateless)      reliability {ir_report.system_reliability:.4f}  "
        f"cost {ir_report.cost_factor:5.2f}x  (no reputations to attack)"
    )
    print()


def defection_demo() -> None:
    print("Attack 2: earn trust, then defect (vs adaptive replication)")
    print("-" * 68)
    from repro.core.runner import run_task
    from repro.core.types import JobOutcome

    tasks = 2_000
    population = 300
    rng = random.Random(5)
    malicious = set(rng.sample(range(population), population // 3))

    def evaluate(strategy) -> tuple:
        correct = 0
        jobs = 0
        for task_id in range(tasks):
            defecting = task_id >= tasks // 2

            def source(index: int) -> JobOutcome:
                node = rng.randrange(population)
                if node in malicious and defecting:
                    return JobOutcome(value=False, node_id=node)
                return JobOutcome(value=rng.random() < 0.95, node_id=node)

            verdict = run_task(strategy, source, true_value=True, task_id=task_id)
            jobs += verdict.jobs_used
            correct += bool(verdict.correct)
        return correct / tasks, jobs / tasks

    adaptive = AdaptiveReplication(quorum=2, trust_after=5, audit_rate=0.02, rng=random.Random(1))
    for label, strategy in (("adaptive replication", adaptive), ("iterative d=4", IterativeRedundancy(4))):
        reliability, cost = evaluate(strategy)
        print(f"  {label:22s} reliability {reliability:.4f}  cost {cost:5.2f}x")
    print()
    print("  After the defection point, adaptive replication keeps accepting")
    print("  the trusted defectors' single results; iterative redundancy keeps")
    print("  demanding a margin of agreement and stays near its design point.")


if __name__ == "__main__":
    whitewashing_demo()
    defection_demo()
