"""A conservative interprocedural call graph over the project.

Resolution is name-based and deliberately under-approximate: an edge is
recorded only when a call (or a bare reference -- callbacks count) can
be resolved statically to a known function:

* ``f(...)`` where ``f`` is a top-level function of the same module;
* ``f(...)`` where ``f`` was bound by ``from repro.x import f`` and the
  target module defines it at top level -- or merely *re-exports* it
  (package facades like ``repro/dca/__init__``): the from-import chain
  is chased to the defining module, so pool workers that call
  facade-imported entry points (``run_dca``, ``run_columnar_dca``)
  still pull the whole engine into worker-reachability;
* ``mod.f(...)`` where ``mod`` is an imported repro module (or alias);
* ``self.m(...)`` inside a class whose body defines method ``m``;
* ``Cls(...)`` for a project class -- the edge goes to
  ``Cls.__init__`` (entering the class runs its constructor);
* ``obj.m(...)`` where ``obj`` is a local bound by ``obj = Cls(...)``
  in the same function (one level of local type tracking).

Anything dynamic (dict dispatch, ``getattr``, higher-order parameters)
is skipped.  Rules built on reachability therefore miss some paths
(false negatives) but never invent one (no false positives from phantom
edges).  Calls made inside a nested function are attributed to the
enclosing top-level function or method, since the nested function can
only run once its owner does.

Function identifiers are ``module:qualname`` strings, e.g.
``repro.sim.engine:Simulator.run`` or ``repro.parallel.dca:run_dca_replicate``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.graph import ImportGraph, ProjectModule, ROOT_PACKAGE


@dataclass
class FunctionInfo:
    """One analyzable function or method."""

    qualname: str  # "repro.mod:func" or "repro.mod:Class.method"
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None


@dataclass
class ModuleScope:
    """Name-resolution context for one module."""

    #: Local alias -> imported repro module ("import repro.sim as s").
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: Local name -> (source module, original name) from from-imports.
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Top-level function names of this module.
    functions: Set[str] = field(default_factory=set)
    #: Top-level class name -> method names.
    classes: Dict[str, Set[str]] = field(default_factory=dict)
    #: Every top-level bound name (functions, classes, assigns, imports).
    bindings: Set[str] = field(default_factory=set)


def module_scope(module: ProjectModule) -> ModuleScope:
    """Extract the top-level symbol table of one module."""
    scope = ModuleScope()
    for node in module.context.tree.body:
        _bind_statement(node, scope)
    # Imports anywhere in the file still resolve names used at that depth;
    # record them module-wide (conservative: the alias exists after import).
    for node in ast.walk(module.context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == ROOT_PACKAGE or alias.name.startswith(ROOT_PACKAGE + "."):
                    if alias.asname:
                        scope.module_aliases[alias.asname] = alias.name
                    else:
                        # ``import repro.x.y`` binds only ``repro``; deeper
                        # attribute chains are left unresolved (conservative).
                        scope.module_aliases[ROOT_PACKAGE] = ROOT_PACKAGE
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module == ROOT_PACKAGE or node.module.startswith(ROOT_PACKAGE + "."):
                for alias in node.names:
                    scope.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
    return scope


def _bind_statement(node: ast.stmt, scope: ModuleScope) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope.functions.add(node.name)
        scope.bindings.add(node.name)
    elif isinstance(node, ast.ClassDef):
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        scope.classes[node.name] = methods
        scope.bindings.add(node.name)
    elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                scope.bindings.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        scope.bindings.add(element.id)
    elif isinstance(node, ast.Import):
        for alias in node.names:
            scope.bindings.add(alias.asname or alias.name.split(".")[0])
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            scope.bindings.add(alias.asname or alias.name)
    elif isinstance(node, (ast.If, ast.Try)):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                _bind_statement(child, scope)


class CallGraph:
    """Functions and the resolved call/reference edges between them."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.calls: Dict[str, Set[str]] = {}
        self.scopes: Dict[str, ModuleScope] = {}

    def add_edge(self, caller: str, callee: str) -> None:
        self.calls.setdefault(caller, set()).add(callee)

    def reachable(self, roots: Set[str]) -> Set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen = set(root for root in roots if root in self.functions)
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for callee in self.calls.get(current, ()):
                if callee not in seen and callee in self.functions:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def callers_closure(self, targets: Set[str]) -> Set[str]:
        """Every function from which some function in ``targets`` is
        reachable (targets included): the reverse-reachability set."""
        reverse: Dict[str, Set[str]] = {}
        for caller, callees in self.calls.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        seen = set(target for target in targets if target in self.functions)
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for caller in reverse.get(current, ()):
                if caller not in seen:
                    seen.add(caller)
                    frontier.append(caller)
        return seen


def _callable_references(body: ast.AST) -> Iterator[ast.expr]:
    """Expressions in ``body`` that may denote a function: call targets
    and bare name/attribute loads (callbacks passed around)."""
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            yield node.func
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            getattr(node, "ctx", None), ast.Load
        ):
            yield node


def _chase_reexport(
    target_module: str,
    symbol: str,
    scopes: Dict[str, ModuleScope],
    *,
    kind: str = "functions",
) -> Optional[Tuple[str, str]]:
    """Follow ``from X import name`` chains to the module that *defines*
    ``symbol`` (as a function or, with ``kind="classes"``, a class).

    Package facades (``repro/dca/__init__``) re-export their submodules'
    entry points; without chasing the chain, a worker like
    ``repro.parallel.shards:run_dca_shard`` calling the facade-imported
    ``run_columnar_dca`` would dead-end at the ``__init__`` and the
    whole engine would silently escape worker-reachability rules.
    """
    seen: Set[Tuple[str, str]] = set()
    while (target_module, symbol) not in seen:
        seen.add((target_module, symbol))
        target_scope = scopes.get(target_module)
        if target_scope is None:
            return None
        defined = (
            target_scope.classes if kind == "classes" else target_scope.functions
        )
        if symbol in defined:
            return target_module, symbol
        imported = target_scope.from_imports.get(symbol)
        if imported is None:
            return None
        target_module, symbol = imported
    return None  # re-export cycle; give up conservatively


def resolve_reference(
    expr: ast.expr,
    module: ProjectModule,
    scope: ModuleScope,
    graph: ImportGraph,
    scopes: Dict[str, ModuleScope],
    class_name: Optional[str] = None,
) -> Optional[str]:
    """Resolve a name/attribute expression to a known function qualname."""
    if isinstance(expr, ast.Name):
        name = expr.id
        if name in scope.functions:
            return f"{module.name}:{name}"
        if name in scope.from_imports:
            target_module, original = scope.from_imports[name]
            resolved = _chase_reexport(target_module, original, scopes)
            if resolved is not None:
                return f"{resolved[0]}:{resolved[1]}"
        return None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        base = expr.value.id
        if base == "self" and class_name is not None:
            methods = scope.classes.get(class_name, set())
            if expr.attr in methods:
                return f"{module.name}:{class_name}.{expr.attr}"
            return None
        target_module = scope.module_aliases.get(base)
        if target_module is None and base in scope.from_imports:
            # ``from repro.parallel import engine`` -> base is a submodule.
            source, original = scope.from_imports[base]
            candidate = f"{source}.{original}"
            if candidate in graph.modules:
                target_module = candidate
        if target_module and target_module in scopes:
            resolved = _chase_reexport(target_module, expr.attr, scopes)
            if resolved is not None:
                return f"{resolved[0]}:{resolved[1]}"
    return None


def resolve_class(
    name: str,
    module: ProjectModule,
    scope: ModuleScope,
    scopes: Dict[str, ModuleScope],
) -> Optional[Tuple[str, str]]:
    """Resolve a bare name to ``(module, class)`` for a project class,
    locally defined or from-imported."""
    if name in scope.classes:
        return module.name, name
    imported = scope.from_imports.get(name)
    if imported is not None:
        source, original = imported
        return _chase_reexport(source, original, scopes, kind="classes")
    return None


def _local_instance_types(
    func: ast.AST,
    module: ProjectModule,
    scope: ModuleScope,
    scopes: Dict[str, ModuleScope],
) -> Dict[str, Tuple[str, str]]:
    """One level of local type tracking: ``var = ClassName(...)`` locals
    mapped to their ``(module, class)``, so ``var.method(...)`` calls
    resolve to project methods."""
    out: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        ctor = node.value.func
        if not isinstance(ctor, ast.Name):
            continue
        klass = resolve_class(ctor.id, module, scope, scopes)
        if klass is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out[target.id] = klass
    return out


def build_callgraph(graph: ImportGraph) -> CallGraph:
    """Build the project call graph from a loaded import graph."""
    callgraph = CallGraph()
    scopes: Dict[str, ModuleScope] = {
        name: module_scope(module) for name, module in graph.modules.items()
    }
    callgraph.scopes = scopes
    # Pass 1: register every top-level function and method.
    for name, module in graph.modules.items():
        for node in module.context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{name}:{node.name}"
                callgraph.functions[qualname] = FunctionInfo(qualname, name, node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{name}:{node.name}.{item.name}"
                        callgraph.functions[qualname] = FunctionInfo(
                            qualname, name, item, class_name=node.name
                        )
    # Pass 2: resolve references inside every function body.
    for qualname, info in callgraph.functions.items():
        module = graph.modules[info.module]
        scope = scopes[info.module]
        local_types = _local_instance_types(info.node, module, scope, scopes)
        for expr in _callable_references(info.node):
            resolved = resolve_reference(
                expr, module, scope, graph, scopes, class_name=info.class_name
            )
            if (
                resolved is None
                and isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
            ):
                # est = Estimator(); est.observe(...) -> Estimator.observe.
                typed = local_types.get(expr.value.id)
                if typed is not None:
                    owner_module, owner_class = typed
                    methods = scopes[owner_module].classes.get(owner_class, set())
                    if expr.attr in methods:
                        resolved = f"{owner_module}:{owner_class}.{expr.attr}"
            if resolved is None and isinstance(expr, ast.Name):
                # Estimator(...) (or Estimator passed as a callback):
                # entering the class runs its constructor.
                klass = resolve_class(expr.id, module, scope, scopes)
                if klass is not None:
                    candidate = f"{klass[0]}:{klass[1]}.__init__"
                    if candidate in callgraph.functions:
                        resolved = candidate
            if resolved is not None and resolved != qualname:
                callgraph.add_edge(qualname, resolved)
    return callgraph
