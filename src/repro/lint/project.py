"""The one lint run path: per-file rules fanned out over the process
pool, plus, in project mode, the whole-program layering rule (RL101).

Both CLI modes go through :func:`lint_project`; per-file mode just
selects no whole-program rules.  Each file is an independent work item,
so per-file linting runs through :func:`repro.parallel.parallel_map`,
the same replication engine the experiment harnesses use, with the same
ordering guarantee: results come back in submission order and findings
are globally sorted, so ``--jobs N`` output is byte-identical to
``--jobs 1``.

The whole-program pass (import graph, project rules) runs in the
parent process: it is one indivisible analysis over the ``repro``
package, discovered among the lint targets by
:func:`~repro.lint.graph.find_package_root`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.engine import LintEngine, iter_python_files, registered_rules, suppressions
from repro.lint.findings import Finding
from repro.lint.graph import find_package_root, load_project
from repro.lint.project_rules import ProjectContext, registered_project_rules


@dataclass
class ProjectReport:
    """Aggregated outcome of a lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Whether a ``repro`` package root was found for whole-program rules.
    analyzed_project: bool = False


def _lint_file_worker(item: Tuple[str, Tuple[str, ...]]) -> Tuple[List[Finding], int]:
    """Lint one file with the selected per-file rules.

    Module-level and picklable by construction, as every pool worker
    must be (``ProcessPoolExecutor.submit`` pickles it): the engine is
    rebuilt inside the worker from rule ids, and findings are frozen
    dataclasses that pickle cleanly.
    """
    path, rule_ids = item
    registry = registered_rules()
    engine = LintEngine(rules=[registry[rule_id]() for rule_id in rule_ids])
    findings = engine.lint_file(Path(path))
    return findings, engine.suppressed_count


def run_project_rules(
    paths: Sequence[str], project_rule_ids: Sequence[str]
) -> Tuple[List[Finding], int, bool]:
    """Run whole-program rules over the ``repro`` package in ``paths``.

    Returns (findings, suppressed count, package-root-found).  Findings
    honour the same inline/file/next-line suppression comments as the
    per-file rules.
    """
    root = find_package_root(paths)
    if root is None:
        return [], 0, False
    graph = load_project(root)
    project = ProjectContext(graph)
    registry = registered_project_rules()
    silenced_by_path: Dict[str, Dict[int, set]] = {
        module.path: suppressions(module.context.source)
        for module in graph.modules.values()
    }
    findings: List[Finding] = []
    suppressed = 0
    for rule_id in sorted(project_rule_ids):
        rule = registry[rule_id]()
        for finding in rule.check(project):
            silenced = silenced_by_path.get(finding.path, {})
            if finding.rule_id in silenced.get(0, set()) or finding.rule_id in silenced.get(
                finding.line, set()
            ):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed, True


def lint_project(
    paths: Sequence[str],
    *,
    rule_ids: Sequence[str],
    project_rule_ids: Sequence[str],
    jobs: Optional[int] = 1,
) -> ProjectReport:
    """Lint ``paths``: per-file rules over :func:`parallel_map`, then the
    whole-program rules (in-process) when ``project_rule_ids`` is
    non-empty.  Findings come back globally sorted."""
    # Imported here: ``repro.parallel`` pulls in the simulation packages,
    # which ``import repro.lint`` alone should not pay for.
    from repro.parallel import parallel_map

    report = ProjectReport()
    files = [str(path) for path in iter_python_files(paths)]
    report.files_checked = len(files)
    items = [(path, tuple(rule_ids)) for path in files]
    for findings, suppressed in parallel_map(_lint_file_worker, items, jobs=jobs):
        report.findings.extend(findings)
        report.suppressed += suppressed
    if project_rule_ids:
        project_findings, suppressed, analyzed = run_project_rules(paths, project_rule_ids)
        report.findings.extend(project_findings)
        report.suppressed += suppressed
        report.analyzed_project = analyzed
    report.findings.sort()
    return report
