"""Beyond-the-paper ablation studies for the design choices DESIGN.md
calls out.

* ``theorem1``  -- the complex (r-aware) and simple (margin) iterative
  algorithms produce identical cost and reliability end to end in the DES
  (Theorem 1's operational consequence);
* ``whitewash`` -- credibility-based fault tolerance vs iterative
  redundancy when malicious nodes shed bad reputations by changing
  identity (Section 5.1's argument for IR's statelessness);
* ``defection`` -- BOINC-style adaptive replication vs iterative
  redundancy against nodes that earn trust honestly and then defect;
* ``priority``  -- follow-up-wave dispatch priority on/off (the
  response-time regime of Figure 6);
* ``worstcase`` -- colluding (binary) vs non-colluding failures: the
  Byzantine binary model is the worst case (Section 5.3).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import (
    AdaptiveReplication,
    ComplexIterativeRedundancy,
    CredibilityManager,
    CredibilityStrategy,
    IterativeRedundancy,
    TraditionalRedundancy,
    analysis,
)
from repro.core.distributions import TwoClassReliability
from repro.dca import (
    ByzantineCollusion,
    DcaConfig,
    DcaSimulation,
    NonColludingFailures,
    SpotCheckEvading,
    run_dca,
)
from repro.experiments.common import render_table


def theorem1_ablation(tasks: int = 4_000, seed: int = 13) -> str:
    """Complex vs simple iterative redundancy: identical behaviour."""
    r, target = 0.7, 0.967
    complex_strategy = ComplexIterativeRedundancy(r, target)
    simple = run_dca(
        DcaConfig(
            strategy=IterativeRedundancy(complex_strategy.equivalent_margin),
            tasks=tasks,
            nodes=400,
            reliability=r,
            seed=seed,
        )
    )
    complex_report = run_dca(
        DcaConfig(
            strategy=complex_strategy, tasks=tasks, nodes=400, reliability=r, seed=seed
        )
    )
    rows = [
        ["simple (margin only)", simple.cost_factor, simple.system_reliability],
        ["complex (needs r)", complex_report.cost_factor, complex_report.system_reliability],
    ]
    return render_table(
        "Ablation: Theorem 1 -- simple vs complex iterative redundancy",
        ["algorithm", "cost factor", "reliability"],
        rows,
        notes=[
            "identical seeds => identical dispatch decisions => identical rows",
            f"(r = {r}, target R = {target}, equivalent d = "
            f"{complex_strategy.equivalent_margin})",
        ],
    )


def whitewash_ablation(tasks: int = 3_000, seed: int = 17) -> str:
    """Credibility-based FT against Byzantine attackers vs IR.

    The pool is 30% malicious (always wrong on real work).  Three regimes:

    * *naive* attackers fail spot-checks, get blacklisted, and
      credibility-based FT shines -- the scheme's best case;
    * *spot-check-evading* attackers answer check jobs correctly
      (Section 5.1: Byzantine faults cannot be reliably spot-checked);
      they earn credibility and their colluding wrong votes are then
      over-weighted, while the spot-check budget is wasted;
    * evading attackers who additionally *whitewash* any identity that
      does get caught.

    Iterative redundancy keeps no reputation state, so every regime looks
    identical to it.
    """
    population = TwoClassReliability(good_r=0.95, faulty_r=0.0, faulty_fraction=0.3)

    def credibility_run(evading: bool, whitewash: bool):
        manager = CredibilityManager(assumed_fault_fraction=0.3)
        strategy = CredibilityStrategy(manager, target=0.97)
        failure_model = SpotCheckEvading(ByzantineCollusion()) if evading else None
        simulation = DcaSimulation(
            DcaConfig(
                strategy=strategy,
                tasks=tasks,
                nodes=300,
                reliability=population,
                seed=seed,
                spot_check_rate=0.15,
                failure_model=failure_model,
            )
        )
        if whitewash:
            _install_whitewasher(simulation, manager)
        report = simulation.run()
        overhead = report.spot_checks / max(1, report.tasks_completed)
        return report, overhead

    rows = []
    for label, evading, whitewash in (
        ("credibility vs naive attackers", False, False),
        ("credibility vs check-evading attackers", True, False),
        ("credibility vs evading + whitewashing", True, True),
    ):
        report, overhead = credibility_run(evading, whitewash)
        rows.append([label, report.cost_factor + overhead, report.system_reliability])
    ir_report = run_dca(
        DcaConfig(
            strategy=IterativeRedundancy(5),
            tasks=tasks,
            nodes=300,
            reliability=population,
            seed=seed,
        )
    )
    rows.append(
        ["iterative d=5 (stateless)", ir_report.cost_factor, ir_report.system_reliability]
    )
    return render_table(
        "Ablation: reputation attacks vs credibility-based fault tolerance",
        ["scheme", "cost (incl. spot-check overhead)", "reliability"],
        rows,
        notes=[
            "population: 30% malicious (always wrong on real work), honest r=0.95",
            "evading attackers pass spot-checks, earning unearned credibility",
            "IR keeps no reputation state, so the attacks cannot touch it",
        ],
    )


def _install_whitewasher(simulation: DcaSimulation, manager: CredibilityManager) -> None:
    """Periodically let blacklisted nodes re-enter with fresh identities."""
    pool = simulation.pool
    sim = simulation.sim

    def sweep(event) -> None:
        blacklisted = [
            node.node_id
            for node in pool
            if manager.is_blacklisted(node.node_id) and node.available
        ]
        for node_id in blacklisted:
            old = pool.leave(node_id)
            manager.forget(node_id)
            if old is not None:
                from repro.dca.node import Node

                pool.join(
                    Node(
                        node_id=pool.allocate_id(),
                        reliability=old.reliability,  # same machine, new name
                        speed_factor=old.speed_factor,
                    )
                )
        simulation.server.pump()
        if simulation.server.remaining_tasks > 0:
            sim.schedule_after(2.0, sweep)

    sim.schedule_after(2.0, sweep)


def defection_ablation(tasks: int = 3_000, seed: int = 19) -> str:
    """Adaptive replication against earn-trust-then-defect nodes.

    A two-phase population: nodes answer honestly for the first half of
    the run (earning trust), then a malicious third defects.  Adaptive
    replication accepts the defectors' single results; iterative
    redundancy keeps voting and barely notices.
    """
    from repro.core.runner import run_task
    from repro.core.types import JobOutcome
    import random

    rng = random.Random(seed)
    population = 300
    malicious = set(rng.sample(range(population), population // 3))

    def run_strategy(strategy):
        correct = 0
        total_jobs = 0
        for task_id in range(tasks):
            defecting = task_id >= tasks // 2

            def source(index: int) -> JobOutcome:
                node_id = rng.randrange(population)
                if node_id in malicious and defecting:
                    value = False
                elif rng.random() < 0.95:
                    value = True
                else:
                    value = False
                return JobOutcome(value=value, node_id=node_id)

            verdict = run_task(strategy, source, true_value=True, task_id=task_id)
            total_jobs += verdict.jobs_used
            correct += 1 if verdict.correct else 0
        return total_jobs / tasks, correct / tasks

    adaptive_cost, adaptive_reliability = run_strategy(
        AdaptiveReplication(quorum=2, trust_after=5, audit_rate=0.02, rng=random.Random(seed))
    )
    ir_cost, ir_reliability = run_strategy(IterativeRedundancy(4))
    rows = [
        ["adaptive replication", adaptive_cost, adaptive_reliability],
        ["iterative d=4", ir_cost, ir_reliability],
    ]
    return render_table(
        "Ablation: earn-trust-then-defect vs adaptive replication",
        ["scheme", "cost factor", "reliability"],
        rows,
        notes=[
            "one third of nodes answer honestly for half the run, then defect",
            "adaptive replication accepts trusted nodes' results unreplicated,"
            " so defectors' wrong answers sail through",
        ],
    )


def priority_ablation(tasks: int = 4_000, seed: int = 23) -> str:
    """Follow-up dispatch priority: the Figure 6 response-time regime."""
    rows = []
    for prioritize in (True, False):
        simulation = DcaSimulation(
            DcaConfig(
                strategy=IterativeRedundancy(4),
                tasks=tasks,
                nodes=400,
                reliability=0.7,
                seed=seed,
            )
        )
        simulation.server.prioritize_followups = prioritize
        report = simulation.run()
        rows.append(
            [
                "follow-ups first" if prioritize else "strict FIFO",
                report.mean_response_time,
                report.makespan,
                report.cost_factor,
            ]
        )
    return render_table(
        "Ablation: follow-up wave dispatch priority (IR, d=4, r=0.7)",
        ["queue policy", "mean response time", "makespan", "cost factor"],
        rows,
        notes=[
            "priority keeps per-task response near the unloaded model;",
            "FIFO makes follow-up waves wait behind the whole backlog",
        ],
    )


def worstcase_ablation(tasks: int = 4_000, seed: int = 29) -> str:
    """Colluding (binary) vs non-colluding failures at the same r."""
    rows = []
    for label, failure_model in (
        ("colluding (binary worst case)", None),
        ("non-colluding (diverse wrong values)", NonColludingFailures()),
    ):
        report = run_dca(
            DcaConfig(
                strategy=TraditionalRedundancy(5),
                tasks=tasks,
                nodes=400,
                reliability=0.7,
                seed=seed,
                failure_model=failure_model,
            )
        )
        rows.append([label, report.cost_factor, report.system_reliability])
    rows.append(
        ["Equation (2) bound", 5.0, analysis.traditional_reliability(0.7, 5)]
    )
    return render_table(
        "Ablation: the binary colluding model is the worst case (TR, k=5)",
        ["failure model", "cost factor", "reliability"],
        rows,
        notes=["Section 5.3: the analysis upper-bounds non-binary failure rates"],
    )


def checkpointing_ablation(tasks: int = 3_000, seed: int = 31) -> str:
    """Checkpointing for long subcomputations (the Section 6 companion).

    Long jobs under crash failures: without checkpoints every crash
    restarts the job from scratch; with checkpoints only the last segment
    is lost.  The ``tasks`` parameter scales the Monte-Carlo replication
    count.
    """
    import random

    from repro.dca.checkpointing import (
        CheckpointPolicy,
        expected_completion_time,
        optimal_interval,
        simulate_job,
    )

    work, crash_rate, checkpoint_cost = 40.0, 0.08, 0.3
    tau_star = optimal_interval(crash_rate, checkpoint_cost)
    policies = [
        ("no checkpoints", CheckpointPolicy(restart_cost=0.5)),
        (
            "fixed interval 10",
            CheckpointPolicy(interval=10.0, checkpoint_cost=checkpoint_cost, restart_cost=0.5),
        ),
        (
            f"Young's tau* = {tau_star:.2f}",
            CheckpointPolicy(
                interval=tau_star, checkpoint_cost=checkpoint_cost, restart_cost=0.5
            ),
        ),
    ]
    rng = random.Random(seed)
    runs = max(200, tasks // 10)
    rows = []
    for label, policy in policies:
        stats = [simulate_job(work, crash_rate, policy, rng) for _ in range(runs)]
        mean_wall = sum(s.wall_clock for s in stats) / runs
        mean_lost = sum(s.work_lost for s in stats) / runs
        rows.append(
            [
                label,
                mean_wall,
                expected_completion_time(work, crash_rate, policy),
                mean_lost,
            ]
        )
    return render_table(
        "Ablation: checkpointing long jobs under crash failures",
        ["policy", "wall clock (sim)", "wall clock (model)", "work lost"],
        rows,
        notes=[
            f"job = {work} work units, Poisson crashes at rate {crash_rate},",
            "checkpoints defend the *work* against crashes; voting defends",
            "the *result* against Byzantine lies -- orthogonal, composable",
        ],
    )


def grid_affinity_ablation(tasks: int = 3_000, seed: int = 37) -> str:
    """Correlated site faults vs replica placement (Section 5.3 on a grid).

    Grid sites fail as units (poisoned node image, broken shared
    filesystem), so replicas co-located on one site share fate and their
    votes are partially fictitious.  Anti-affinity placement restores the
    independence assumption and recovers the closed-form reliability.
    """
    from repro.grid import GridConfig, run_grid

    base = dict(
        strategy=TraditionalRedundancy(3),
        tasks=tasks,
        sites=4,
        site_fault_prob=0.2,
        job_fault_prob=0.05,
        seed=seed,
    )
    colocated = run_grid(GridConfig(policy="random", anti_affinity=False, **base))
    spread = run_grid(GridConfig(policy="random", anti_affinity=True, **base))
    r = GridConfig(**base).expected_job_reliability()
    rows = [
        ["random placement (co-location allowed)", colocated.cost_factor, colocated.system_reliability],
        ["anti-affinity placement", spread.cost_factor, spread.system_reliability],
        ["Equation (2) @ marginal r", 3.0, analysis.traditional_reliability(r, 3)],
    ]
    return render_table(
        "Ablation: grid replica placement under correlated site faults (TR, k=3)",
        ["placement", "cost factor", "reliability"],
        rows,
        notes=[
            f"4 sites, site poisoning 0.2/task, residual job faults 0.05 (marginal r = {r:.3f})",
            "co-located replicas share the site's fate; the vote loses independence",
        ],
    )


ABLATIONS: dict = {
    "theorem1": theorem1_ablation,
    "whitewash": whitewash_ablation,
    "defection": defection_ablation,
    "priority": priority_ablation,
    "worstcase": worstcase_ablation,
    "checkpointing": checkpointing_ablation,
    "grid_affinity": grid_affinity_ablation,
}


def _run_section(spec: Tuple[str, int]) -> str:
    """Render one ablation section (module-level, picklable worker)."""
    name, tasks = spec
    return ABLATIONS[name](tasks=tasks)


def main(scale: str = "default", jobs: Optional[int] = 1) -> str:
    """Run every ablation; sections are independent studies with their
    own seeds, so they fan out over the replication engine as-is and the
    rendered output is identical for any ``jobs`` value."""
    from repro.parallel import parallel_map

    sizes = {"smoke": 800, "default": 3_000, "full": 10_000}
    tasks = sizes.get(scale, 3_000)
    sections = parallel_map(
        _run_section, [(name, tasks) for name in ABLATIONS], jobs=jobs
    )
    return "\n\n".join(sections)


if __name__ == "__main__":  # pragma: no cover
    print(main("smoke"))
