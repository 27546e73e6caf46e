"""Whole-program rules, run by ``repro-lint --project``.

Unlike the per-file rules these see the entire ``repro`` package at
once, through its import graph.  One rule lives here: RL101, the
layering DAG and import cycles, which no runtime test pins.  The
cross-module determinism invariants (picklable pool workers, no shared
worker state, hash-order independence, seeded RNGs, resolvable
``__init__`` exports) are pinned by runtime tests instead; see
``docs/linting.md``.

The architecture the layering rule (RL101) enforces::

    core ──► sim ──► dca ──► {grid, mapreduce, volunteer} ──► parallel
                                                                  │
    sat ──► volunteer                                             ▼
                               bench / lint (tooling)        experiments

expressed precisely by :data:`ALLOWED_IMPORTS`.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple, Type

from repro.lint.findings import Finding, Severity
from repro.lint.graph import ImportGraph, ProjectModule

#: The allowed-import DAG between ``repro`` subpackages.  A package may
#: always import itself; ``""`` is the top-level ``repro/__init__``,
#: which may import anything (it is the public facade).  Tooling layers
#: (``bench``, ``lint``) sit above everything they measure or analyze.
ALLOWED_IMPORTS: Dict[str, FrozenSet[str]] = {
    "core": frozenset(),
    # The telemetry substrate sits below everything that records into it;
    # it imports nothing and is importable from every layer.
    "obs": frozenset(),
    "sim": frozenset({"core", "obs"}),
    "sat": frozenset({"core", "obs"}),
    "dca": frozenset({"core", "sim", "obs"}),
    "grid": frozenset({"core", "sim", "dca", "obs"}),
    "mapreduce": frozenset({"core", "sim", "dca", "obs"}),
    "volunteer": frozenset({"core", "sim", "sat", "dca", "obs"}),
    "parallel": frozenset({"core", "sim", "dca", "volunteer", "obs"}),
    "experiments": frozenset(
        {
            "core",
            "sim",
            "sat",
            "dca",
            "grid",
            "mapreduce",
            "volunteer",
            "parallel",
            "obs",
        }
    ),
    "bench": frozenset(
        {
            "core",
            "sim",
            "sat",
            "dca",
            "grid",
            "mapreduce",
            "volunteer",
            "parallel",
            "experiments",
            "obs",
        }
    ),
    # ``lint_project`` fans files out through ``parallel_map``, imported
    # inside the function; the linter loads no simulation code.
    "lint": frozenset({"parallel"}),
}


@dataclass
class ProjectContext:
    """Everything a project rule needs: the import graph and its modules."""

    graph: ImportGraph

    @property
    def modules(self) -> Dict[str, ProjectModule]:
        return self.graph.modules


class ProjectRule(abc.ABC):
    """Base class for whole-program rules."""

    rule_id: str = "RL199"
    summary: str = ""
    severity: Severity = Severity.ERROR

    @abc.abstractmethod
    def check(self, project: ProjectContext) -> Iterator[Finding]:
        """Yield findings over the whole project."""

    def finding(
        self, module: ProjectModule, node: Optional[ast.AST], message: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1) if node is not None else 1,
            col=(getattr(node, "col_offset", 0) + 1) if node is not None else 1,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


_PROJECT_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a project rule to the registry."""
    if cls.rule_id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate project rule id {cls.rule_id}")
    _PROJECT_REGISTRY[cls.rule_id] = cls
    return cls


def registered_project_rules() -> Dict[str, Type[ProjectRule]]:
    """The project-rule registry, keyed by rule id."""
    return dict(_PROJECT_REGISTRY)


@register_project
class LayeringRule(ProjectRule):
    """RL101: package imports must follow the architecture DAG, and the
    module import graph must stay acyclic.  A lower layer importing a
    higher one couples the simulation substrate to its consumers; a
    cycle makes import order (and thus module init effects) fragile."""

    rule_id = "RL101"
    summary = "package imports must follow the layering DAG; no import cycles"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        # One finding per (violating module, target package): every
        # offending module gets its own report -- so a new violation in a
        # second file cannot hide behind a baselined one -- without
        # repeating a module's identical imports line by line.
        flagged: Set[Tuple[str, str]] = set()
        unknown_pkgs: Set[str] = set()
        edges = sorted(
            project.graph.edges, key=lambda e: (e.source, e.lineno, e.col)
        )
        for edge in edges:
            source = project.modules.get(edge.source)
            target = project.modules.get(edge.target)
            if source is None or target is None:
                continue
            source_pkg, target_pkg = source.package, target.package
            if source_pkg == "":
                continue  # repro/__init__ is the facade; it may import anything
            if source_pkg == target_pkg:
                continue
            allowed = ALLOWED_IMPORTS.get(source_pkg)
            if allowed is None:
                if source_pkg not in unknown_pkgs:
                    unknown_pkgs.add(source_pkg)
                    yield self.finding(
                        source,
                        None,
                        f"package '{source_pkg}' is not in the layering map "
                        "(ALLOWED_IMPORTS in repro/lint/project_rules.py); add it "
                        "with an explicit allowed-import set",
                    )
                continue
            if target_pkg != "" and target_pkg not in allowed:
                if (edge.source, target_pkg) in flagged:
                    continue
                flagged.add((edge.source, target_pkg))
                yield self.finding(
                    source,
                    _node_at(source, edge.lineno),
                    f"layering violation: '{source_pkg}' may not import "
                    f"'{target_pkg}' (allowed: "
                    f"{', '.join(sorted(allowed)) or 'nothing'}); "
                    f"imports {edge.target}",
                )
        for cycle in project.graph.cycles():
            anchor_name = cycle[0]
            module = project.modules[anchor_name]
            lineno = 1
            for edge in project.graph.edges:
                if edge.source == anchor_name and edge.target in cycle:
                    lineno = edge.lineno
                    break
            yield self.finding(
                module,
                _node_at(module, lineno),
                f"import cycle between modules: {' -> '.join(cycle)} -> {cycle[0]}",
            )


def _node_at(module: ProjectModule, lineno: int) -> ast.AST:
    """A synthetic AST anchor at ``lineno`` for finding locations."""
    anchor = ast.Pass()
    anchor.lineno = lineno
    anchor.col_offset = 0
    return anchor
