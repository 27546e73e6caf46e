"""Project-mode analysis: per-file rules fanned out over the process
pool, plus the whole-program rules (RL101-RL106).

This is the linter dogfooding PR 2's replication engine: each file is an
independent work item, so per-file linting runs through
:func:`repro.parallel.parallel_map` with the same ordering guarantee the
experiment harnesses rely on -- ``--jobs N`` output is byte-identical to
``--jobs 1`` because results come back in submission order and findings
are globally sorted before rendering.

The whole-program pass (import graph, call graph, project rules) runs
in the parent process: it is one indivisible analysis over the
``repro`` package, discovered among the lint targets by
:func:`~repro.lint.graph.find_package_root`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.cache import LintCache, file_sha, tree_hash
from repro.lint.engine import LintEngine, iter_python_files, registered_rules, suppressions
from repro.lint.findings import Finding
from repro.lint.graph import find_package_root, load_project
from repro.lint.project_rules import ProjectContext, registered_project_rules


@dataclass
class ProjectReport:
    """Aggregated outcome of a project-mode run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Whether a ``repro`` package root was found for whole-program rules.
    analyzed_project: bool = False


def _lint_file_worker(item: Tuple[str, Tuple[str, ...]]) -> Tuple[List[Finding], int]:
    """Lint one file with the selected per-file rules.

    Module-level and picklable by construction (RL102's own demand): the
    engine is rebuilt inside the worker from rule ids, and findings are
    frozen dataclasses that pickle cleanly.
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
    project = ProjectContext.build(graph)
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
    cache: Optional[LintCache] = None,
) -> ProjectReport:
    """Run the full project analysis: per-file rules (parallel) plus
    whole-program rules (in-process).

    With ``cache``, per-file results are reused for files whose sha256
    is unchanged and the whole-program pass is reused when the entire
    tree hash matches; the findings are byte-identical either way.
    """
    report = ProjectReport()
    files = [str(path) for path in iter_python_files(paths)]
    report.files_checked = len(files)
    shas: Dict[str, str] = {}
    if cache is not None:
        shas = {path: file_sha(path) for path in files}
        cache.prune(files)
    if rule_ids and files:
        pending: List[str] = []
        for path in files:
            hit = (
                cache.get_file(path, shas[path]) if cache is not None else None
            )
            if hit is not None:
                findings, suppressed = hit
                report.findings.extend(findings)
                report.suppressed += suppressed
            else:
                pending.append(path)
        if pending:
            items = [(path, tuple(rule_ids)) for path in pending]
            if jobs is not None and jobs <= 1:
                results = [_lint_file_worker(item) for item in items]
            else:
                from repro.parallel import parallel_map

                results = parallel_map(_lint_file_worker, items, jobs=jobs)
            for path, (findings, suppressed) in zip(pending, results):
                report.findings.extend(findings)
                report.suppressed += suppressed
                if cache is not None:
                    cache.put_file(path, shas[path], findings, suppressed)
    if project_rule_ids:
        project_key = tree_hash(shas) if cache is not None else ""
        hit = cache.get_project(project_key) if cache is not None else None
        if hit is not None:
            project_findings, suppressed, analyzed = hit
        else:
            project_findings, suppressed, analyzed = run_project_rules(paths, project_rule_ids)
            if cache is not None:
                cache.put_project(
                    project_key, project_findings, suppressed, analyzed
                )
        report.findings.extend(project_findings)
        report.suppressed += suppressed
        report.analyzed_project = analyzed
    if cache is not None:
        cache.save()
    report.findings.sort()
    return report
