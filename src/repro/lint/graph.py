"""Module index and import graph for whole-program (``--project``) analysis.

The per-file rules in :mod:`repro.lint.rules` see one module at a time;
the project rule (RL101) needs to see *between* modules: which package
imports which, and where the cycles are.  This module builds that
substrate once per run:

* :func:`find_package_root` locates the ``repro`` package among the lint
  targets (``src/repro`` itself, or a ``src`` directory containing it);
* :func:`load_project` parses every module under the root into a
  :class:`ProjectModule` (reusing the per-file
  :class:`~repro.lint.engine.ModuleContext`) and extracts every
  repro-internal import -- including relative and function-local
  imports -- into :class:`ImportEdge` records;
* :meth:`ImportGraph.cycles` runs Tarjan's SCC algorithm over the module
  graph, with sorted adjacency so the reported cycles are deterministic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import ModuleContext

#: The importable top-level package this analysis understands.
ROOT_PACKAGE = "repro"


@dataclass(frozen=True)
class ImportEdge:
    """One internal import: ``source`` depends on ``target``.

    Attributes:
        source: Dotted name of the importing module.
        target: Dotted name of the imported module (always internal).
        lineno: Line of the import statement in the source module.
        col: Column of the import statement (1-based, for findings).
        top_level: False for imports inside a function body, which run
            lazily (the sanctioned way to break an import cycle).
    """

    source: str
    target: str
    lineno: int
    col: int
    top_level: bool = True


@dataclass
class ProjectModule:
    """One parsed module of the project."""

    name: str
    path: str
    context: ModuleContext
    #: ``repro`` subpackage ("sim", "dca", ...); "" for ``repro/__init__``.
    package: str = ""
    #: True for ``__init__.py`` files (the module *is* a package).
    is_package: bool = False


class ImportGraph:
    """The project's modules and the internal imports between them."""

    def __init__(self) -> None:
        self.modules: Dict[str, ProjectModule] = {}
        self.edges: List[ImportEdge] = []

    def add_module(self, module: ProjectModule) -> None:
        self.modules[module.name] = module

    def add_edge(self, edge: ImportEdge) -> None:
        self.edges.append(edge)

    def cycles(self) -> List[List[str]]:
        """Strongly connected components with more than one module.

        Only imports that execute at import time participate: a
        function-scoped (lazy) import is the sanctioned cycle-breaker,
        so counting it would flag every deliberate fix.  Each cycle is
        returned as a sorted list of module names; cycles are ordered by
        their smallest member, so output is deterministic.
        """
        eager: Dict[str, Set[str]] = {name: set() for name in self.modules}
        for edge in self.edges:
            if edge.top_level and edge.target in self.modules:
                eager.setdefault(edge.source, set()).add(edge.target)
        adjacency = {name: sorted(targets) for name, targets in eager.items()}
        index_of: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        sccs: List[List[str]] = []

        def strongconnect(root: str) -> None:
            # Iterative Tarjan: (node, iterator position) frames.
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, pos = work.pop()
                if pos == 0:
                    index_of[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                neighbours = adjacency.get(node, [])
                for i in range(pos, len(neighbours)):
                    succ = neighbours[i]
                    if succ not in index_of:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if recurse:
                    continue
                if lowlink[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for name in sorted(adjacency):
            if name not in index_of:
                strongconnect(name)
        return sorted(sccs, key=lambda component: component[0])


def find_package_root(paths: Sequence[str]) -> Optional[Path]:
    """Locate the ``repro`` package directory among the lint targets.

    Accepts the package directory itself (``src/repro``), a directory
    containing it (``src``), or any path *inside* the package; returns
    ``None`` when no target reaches an importable ``repro`` package.
    """
    for raw in paths:
        path = Path(raw)
        candidates = [path] if path.is_dir() else list(path.parents)
        for candidate in candidates:
            if candidate.name == ROOT_PACKAGE and (candidate / "__init__.py").is_file():
                return candidate
            nested = candidate / ROOT_PACKAGE
            if (nested / "__init__.py").is_file():
                return nested
    return None


def module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the package ``root``."""
    relative = path.resolve().relative_to(root.resolve())
    parts = [ROOT_PACKAGE] + list(relative.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


def _base_package_parts(module: ProjectModule) -> List[str]:
    """The package a relative import in ``module`` resolves against."""
    parts = module.name.split(".")
    return parts if module.is_package else parts[:-1]


def _resolve_from_import(
    module: ProjectModule, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute dotted target of a (possibly relative) from-import."""
    if node.level == 0:
        return node.module
    base = _base_package_parts(module)
    if node.level - 1 > len(base):
        return None  # relative import escaping the package: unresolvable
    base = base[: len(base) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _function_scoped(tree: ast.Module) -> Set[int]:
    """``id()``s of nodes inside function bodies (lazy-import territory).

    Class bodies execute at import time, so they do not count.
    """
    scoped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is not node:
                    scoped.add(id(sub))
    return scoped


def extract_edges(
    module: ProjectModule, known_modules: Set[str]
) -> Iterator[ImportEdge]:
    """Every repro-internal import in ``module`` (any nesting depth)."""
    scoped = _function_scoped(module.context.tree)
    for node in ast.walk(module.context.tree):
        eager = id(node) not in scoped
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == ROOT_PACKAGE or alias.name.startswith(ROOT_PACKAGE + "."):
                    if alias.name in known_modules:
                        yield ImportEdge(
                            source=module.name,
                            target=alias.name,
                            lineno=node.lineno,
                            col=node.col_offset + 1,
                            top_level=eager,
                        )
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_from_import(module, node)
            if target is None:
                continue
            if target != ROOT_PACKAGE and not target.startswith(ROOT_PACKAGE + "."):
                continue
            for alias in node.names:
                # ``from repro.pkg import mod`` imports a submodule: point
                # the edge at the submodule so cycles are module-accurate.
                submodule = f"{target}.{alias.name}"
                if submodule in known_modules:
                    yield ImportEdge(
                        source=module.name,
                        target=submodule,
                        lineno=node.lineno,
                        col=node.col_offset + 1,
                        top_level=eager,
                    )
                elif target in known_modules:
                    yield ImportEdge(
                        source=module.name,
                        target=target,
                        lineno=node.lineno,
                        col=node.col_offset + 1,
                        top_level=eager,
                    )


def load_project(root: Path) -> ImportGraph:
    """Parse every module under ``root`` and build the import graph.

    Files that fail to parse are skipped here; the per-file engine
    already reports them as RL000 findings.
    """
    graph = ImportGraph()
    for path in sorted(root.rglob("*.py")):
        try:
            context = ModuleContext.parse(path.read_text(encoding="utf-8"), str(path))
        except SyntaxError:
            continue
        name = module_name(path, root)
        parts = name.split(".")
        graph.add_module(
            ProjectModule(
                name=name,
                path=str(path),
                context=context,
                package=parts[1] if len(parts) > 1 else "",
                is_package=path.name == "__init__.py",
            )
        )
    known = set(graph.modules)
    for module in graph.modules.values():
        for edge in extract_edges(module, known):
            graph.add_edge(edge)
    return graph
