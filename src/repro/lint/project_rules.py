"""Whole-program rules (RL101-RL106), run by ``repro-lint --project``.

Unlike the per-file rules these see the entire ``repro`` package at
once: the import graph, a conservative call graph, and every module's
AST.  They encode the cross-module invariants the paper's statistics
depend on -- replicates stay i.i.d. only while worker processes share no
mutable state, draw from registry-owned streams, and reduce results in a
deterministic order.

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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleScope,
    build_callgraph,
    resolve_reference,
)
from repro.lint.dataflow import (
    MUTATOR_METHODS,
    ORDER_SENSITIVE_REDUCERS,
    RNG_DRAW_ATTRS,
    draws_rng,
    escaping_expressions,
    is_setish_expr,
    local_bindings,
    mutable_module_globals,
    mutated_names,
    setish_names,
    unseeded_random_calls,
)
from repro.lint.findings import Finding, Severity
from repro.lint.graph import ImportGraph, ProjectModule
from repro.lint.rules import _GLOBAL_DRAWS

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
    "lint": frozenset(
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
}


@dataclass
class ProjectContext:
    """Everything a project rule needs: graph, call graph, modules."""

    graph: ImportGraph
    callgraph: CallGraph

    @classmethod
    def build(cls, graph: ImportGraph) -> "ProjectContext":
        return cls(graph=graph, callgraph=build_callgraph(graph))

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


#: Module paths of the deterministic fan-out entry points.
_PARALLEL_MAP_HOMES = ("repro.parallel", "repro.parallel.engine")


@dataclass
class WorkerRef:
    """One callable submitted to a process pool."""

    module: ProjectModule
    call: ast.Call
    worker: ast.expr
    #: Enclosing top-level function/method qualname, if any.
    enclosing: Optional[str]
    #: Nested function and lambda-valued names visible at the call site.
    nested_defs: FrozenSet[str]


def _scope_nodes(module: ProjectModule, func_node: Optional[ast.AST]) -> Iterator[ast.AST]:
    """AST nodes belonging to one scope from :func:`_top_level_callables`.

    A top-level function owns everything inside it (nested defs
    included); the module-level scope owns only statements outside
    top-level functions and classes, so no node is visited twice.
    """
    if func_node is not None:
        yield from ast.walk(func_node)
        return
    for stmt in module.context.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from ast.walk(stmt)


def _iter_pool_call_sites(project: ProjectContext) -> Iterator[WorkerRef]:
    """Every ``parallel_map(worker, ...)`` / ``pool.submit(worker, ...)``
    call in the project, with enough scope context to classify the worker."""
    for name, module in sorted(project.modules.items()):
        scope = project.callgraph.scopes[name]
        pool_names = _executor_locals(module.context.tree)
        for enclosing, func_node in _top_level_callables(module):
            nested = _nested_callable_names(func_node) if func_node is not None else frozenset()
            for node in _scope_nodes(module, func_node):
                if not isinstance(node, ast.Call):
                    continue
                worker = _pool_worker_arg(node, scope, pool_names)
                if worker is not None:
                    yield WorkerRef(
                        module=module,
                        call=node,
                        worker=worker,
                        enclosing=enclosing,
                        nested_defs=nested,
                    )


def _top_level_callables(
    module: ProjectModule,
) -> Iterator[Tuple[Optional[str], Optional[ast.AST]]]:
    """(qualname, node) for each top-level function/method, plus one
    ``(None, None)`` entry for module-level code."""
    yield None, None
    for node in module.context.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module.name}:{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module.name}:{node.name}.{item.name}", item


def _nested_callable_names(func: ast.AST) -> FrozenSet[str]:
    """Names of nested defs and lambda-valued locals inside ``func`` --
    none of which survive pickling."""
    out: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            out.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
    return frozenset(out)


def _executor_locals(tree: ast.Module) -> FrozenSet[str]:
    """Names bound to a ``ProcessPoolExecutor`` instance anywhere in the
    module (``with ProcessPoolExecutor(...) as pool`` or assignment)."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if (
                    _is_executor_ctor(item.context_expr)
                    and item.optional_vars is not None
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    out.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign) and _is_executor_ctor(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
    return frozenset(out)


def _is_executor_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name == "ProcessPoolExecutor"


def _pool_worker_arg(
    call: ast.Call, scope: ModuleScope, pool_names: FrozenSet[str]
) -> Optional[ast.expr]:
    """The worker argument if ``call`` submits work to a process pool."""
    func = call.func
    # parallel_map(worker, items) via from-import (possibly aliased).
    if isinstance(func, ast.Name):
        imported = scope.from_imports.get(func.id)
        if imported and imported[0] in _PARALLEL_MAP_HOMES and imported[1] == "parallel_map":
            return _first_arg(call, "worker")
    # engine.parallel_map(...) / parallel.parallel_map(...).
    if isinstance(func, ast.Attribute) and func.attr == "parallel_map":
        return _first_arg(call, "worker")
    # pool.submit(worker, ...) / pool.map(worker, items).
    if (
        isinstance(func, ast.Attribute)
        and func.attr in ("submit", "map")
        and isinstance(func.value, ast.Name)
        and func.value.id in pool_names
    ):
        return _first_arg(call, "fn")
    return None


def _first_arg(call: ast.Call, keyword: str) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


@register_project
class ParallelSafetyRule(ProjectRule):
    """RL102: callables handed to the process pool must be module-level
    functions -- lambdas, nested functions, and bound methods either
    fail to pickle or smuggle closure state the pool cannot replicate."""

    rule_id = "RL102"
    summary = "pool workers must be module-level picklable functions (no lambdas/closures)"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ref in _iter_pool_call_sites(project):
            yield from self._classify(project, ref, ref.worker)

    def _classify(
        self, project: ProjectContext, ref: WorkerRef, worker: ast.expr
    ) -> Iterator[Finding]:
        if isinstance(worker, ast.Lambda):
            yield self.finding(
                ref.module,
                worker,
                "lambda submitted to a process pool cannot be pickled; "
                "define a module-level worker function",
            )
            return
        if isinstance(worker, ast.Call):
            # functools.partial(f, ...): classify the wrapped callable.
            func = worker.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "partial" and worker.args:
                yield from self._classify(project, ref, worker.args[0])
            return
        if isinstance(worker, ast.Name):
            if worker.id in ref.nested_defs:
                yield self.finding(
                    ref.module,
                    worker,
                    f"'{worker.id}' is defined inside "
                    f"{ref.enclosing or 'this scope'} and closes over its "
                    "frame; pool workers must be module-level functions",
                )
            return
        if isinstance(worker, ast.Attribute):
            if isinstance(worker.value, ast.Name) and worker.value.id == "self":
                yield self.finding(
                    ref.module,
                    worker,
                    f"bound method self.{worker.attr} submitted to a process "
                    "pool pickles the whole instance (or fails); use a "
                    "module-level function taking explicit state",
                )
            return


def _worker_roots(project: ProjectContext) -> Set[str]:
    """Qualnames of functions that run inside pool worker processes."""
    roots: Set[str] = set()
    for ref in _iter_pool_call_sites(project):
        scope = project.callgraph.scopes[ref.module.name]
        resolved = resolve_reference(
            ref.worker, ref.module, scope, project.graph, project.callgraph.scopes
        )
        if resolved is None and ref.enclosing is not None:
            # parallel_map(self.work, ...): a bound-method worker (RL102
            # flags it, but it still runs in the workers -- reachability
            # rules must see through it).
            worker = ref.worker
            _, _, enclosing_name = ref.enclosing.partition(":")
            class_name = enclosing_name.split(".", 1)[0] if "." in enclosing_name else None
            if (
                class_name is not None
                and isinstance(worker, ast.Attribute)
                and isinstance(worker.value, ast.Name)
                and worker.value.id == "self"
            ):
                resolved = resolve_reference(
                    worker,
                    ref.module,
                    scope,
                    project.graph,
                    project.callgraph.scopes,
                    class_name=class_name,
                )
        if resolved is not None:
            roots.add(resolved)
    return roots


@register_project
class WorkerMutableStateRule(ProjectRule):
    """RL103: functions reachable from a pool worker must not mutate
    module-level mutable state -- each worker process mutates its own
    copy, so the mutation silently diverges between ``jobs=1`` and
    ``jobs=N`` and is lost when the worker exits."""

    rule_id = "RL103"
    summary = "no mutation of module-level mutable state reachable from pool workers"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        roots = _worker_roots(project)
        if not roots:
            return
        reachable = project.callgraph.reachable(roots)
        globals_by_module: Dict[str, Dict[str, ast.AST]] = {}
        for qualname in sorted(reachable):
            info = project.callgraph.functions[qualname]
            module = project.modules[info.module]
            if info.module not in globals_by_module:
                globals_by_module[info.module] = mutable_module_globals(
                    module.context.tree
                )
            mutable_globals = globals_by_module[info.module]
            if not mutable_globals:
                continue
            locals_ = local_bindings(info.node)
            for name, node in mutated_names(info.node):
                if name in mutable_globals and name not in locals_:
                    yield self.finding(
                        module,
                        node,
                        f"{qualname.split(':', 1)[1]}() mutates module-level "
                        f"'{name}' but is reachable from a process-pool "
                        "worker; per-process mutations diverge between "
                        "jobs=1 and jobs=N and are lost on worker exit",
                    )


@register_project
class UnorderedIterationRule(ProjectRule):
    """RL104: iterating a ``set`` feeds hash order -- which varies with
    PYTHONHASHSEED and across processes -- into whatever consumes the
    loop.  Flag set iteration that reaches an RNG draw or accumulates a
    reduction; wrap the set in ``sorted(...)`` instead."""

    rule_id = "RL104"
    summary = "no unordered set iteration feeding reductions or RNG-consuming code"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        rng_consumers = self._rng_consuming_functions(project)
        for name, module in sorted(project.modules.items()):
            scope = project.callgraph.scopes[name]
            for qualname, func_node in _top_level_callables(module):
                known = frozenset(
                    setish_names(func_node, module.context.tree)
                    if func_node is not None
                    else setish_names(module.context.tree)
                )
                yield from self._check_scope(
                    project, module, scope, func_node, known, rng_consumers
                )

    def _check_scope(
        self,
        project: ProjectContext,
        module: ProjectModule,
        scope: ModuleScope,
        func_node: Optional[ast.AST],
        known: frozenset,
        rng_consumers: Set[str],
    ) -> Iterator[Finding]:
        for node in _scope_nodes(module, func_node):
            if isinstance(node, ast.For) and is_setish_expr(node.iter, known):
                reason = self._loop_reason(
                    project, module, scope, node, rng_consumers
                )
                if reason is not None:
                    yield self.finding(
                        module,
                        node.iter,
                        f"iteration over an unordered set {reason}; iterate "
                        "sorted(...) so the order is deterministic",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name not in ORDER_SENSITIVE_REDUCERS or not node.args:
                    continue
                # reduce(f, iterable) takes the iterable second.
                candidate = node.args[1] if name == "reduce" and len(node.args) > 1 else node.args[0]
                if is_setish_expr(candidate, known) or self._comp_over_set(
                    candidate, known
                ):
                    yield self.finding(
                        module,
                        candidate,
                        f"{name}() over an unordered set depends on hash "
                        "order; wrap the set in sorted(...) first",
                    )

    @staticmethod
    def _comp_over_set(node: ast.AST, known: frozenset) -> bool:
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            return any(
                is_setish_expr(gen.iter, known) for gen in node.generators
            )
        return False

    def _loop_reason(
        self,
        project: ProjectContext,
        module: ProjectModule,
        scope: ModuleScope,
        loop: ast.For,
        rng_consumers: Set[str],
    ) -> Optional[str]:
        loop_locals = {
            n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)
        }
        for node in loop.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    if isinstance(sub.func, ast.Attribute) and sub.func.attr in RNG_DRAW_ATTRS:
                        return "draws from an RNG stream per element"
                    resolved = resolve_reference(
                        sub.func, module, scope, project.graph, project.callgraph.scopes
                    )
                    if resolved in rng_consumers:
                        return (
                            f"calls {resolved.split(':', 1)[1]}(), which "
                            "consumes an RNG stream"
                        )
                elif isinstance(sub, ast.AugAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    if sub.target.id not in loop_locals:
                        return (
                            f"accumulates into '{sub.target.id}' (an "
                            "order-sensitive reduction)"
                        )
        return None

    @staticmethod
    def _rng_consuming_functions(project: ProjectContext) -> Set[str]:
        """Functions that (transitively) draw from an RNG stream."""
        direct = {
            qualname
            for qualname, info in project.callgraph.functions.items()
            if draws_rng(info.node)
        }
        return project.callgraph.callers_closure(direct)


@register_project
class RngProvenanceRule(ProjectRule):
    """RL105: RNG streams come from the registry.  A function that is
    *handed* a stream must not mint its own ``random.Random``, and an
    unseeded ``random.Random()`` (OS-entropy seeded, unreplayable) must
    not escape the function that created it."""

    rule_id = "RL105"
    summary = "no private RNG minting in stream-taking functions; unseeded RNGs must not escape"

    #: Parameter names that mark a function as registry-stream-taking.
    STREAM_PARAMS = frozenset({"rng", "stream"})

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for qualname in sorted(project.callgraph.functions):
            info = project.callgraph.functions[qualname]
            module = project.modules[info.module]
            yield from self._check_function(module, info)
        for name, module in sorted(project.modules.items()):
            # Module-level unseeded Random(): a global escape by definition.
            top_level = [
                node
                for node in module.context.tree.body
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
            for stmt in top_level:
                for call in unseeded_random_calls(_wrap(stmt)):
                    yield self.finding(
                        module,
                        call,
                        "module-level random.Random() is seeded from OS "
                        "entropy and cannot be replayed; seed it explicitly "
                        "or use an RngRegistry stream",
                    )

    def _check_function(
        self, module: ProjectModule, info: FunctionInfo
    ) -> Iterator[Finding]:
        node = info.node
        args = getattr(node, "args", None)
        if args is None:
            return
        param_names = {arg.arg for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)}
        stream_params = param_names & self.STREAM_PARAMS | {
            arg.arg
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            if _is_random_annotation(arg.annotation)
        }
        if stream_params:
            exempt = _fallback_ctor_ids(node, stream_params)
            for sub in ast.walk(node):
                if _is_random_ctor(sub) and id(sub) not in exempt:
                    yield self.finding(
                        module,
                        sub,
                        f"{info.qualname.split(':', 1)[1]}() is handed a "
                        f"registry stream ({', '.join(sorted(stream_params))}) "
                        "but mints its own random.Random; derive streams from "
                        "the registry so replicates stay i.i.d.",
                    )
        unseeded = set(map(id, unseeded_random_calls(node)))
        if unseeded:
            for expr in escaping_expressions(node):
                for sub in ast.walk(expr):
                    if id(sub) in unseeded:
                        yield self.finding(
                            module,
                            sub,
                            "unseeded random.Random() escapes "
                            f"{info.qualname.split(':', 1)[1]}(); it is "
                            "OS-entropy seeded and the caller cannot replay "
                            "it -- take a seed or a registry stream instead",
                        )
                        unseeded.discard(id(sub))


def _wrap(stmt: ast.stmt) -> ast.Module:
    return ast.Module(body=[stmt], type_ignores=[])


def _is_absent_stream_test(test: ast.AST, params: FrozenSet[str]) -> bool:
    """``param is None`` / ``param == None`` / ``not param`` for a stream param."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return isinstance(test.operand, ast.Name) and test.operand.id in params
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if isinstance(test.ops[0], (ast.Is, ast.Eq)):
            pairs = ((test.left, test.comparators[0]), (test.comparators[0], test.left))
            for name, none in pairs:
                if (
                    isinstance(name, ast.Name)
                    and name.id in params
                    and isinstance(none, ast.Constant)
                    and none.value is None
                ):
                    return True
    return False


def _fallback_ctor_ids(node: ast.AST, stream_params: FrozenSet[str]) -> Set[int]:
    """``id()``s of *seeded* Random ctors that only run when the stream
    param is absent -- the ``rng or random.Random(0)`` /
    ``if rng is None:`` default idiom, which is deterministic and fine.
    Unseeded ctors never qualify: an OS-entropy fallback is unreplayable.
    """
    exempt: Set[int] = set()

    def collect(roots: Iterable[ast.AST]) -> None:
        for root in roots:
            for sub in ast.walk(root):
                if _is_random_ctor(sub) and (sub.args or sub.keywords):
                    exempt.add(id(sub))

    for sub in ast.walk(node):
        if isinstance(sub, ast.BoolOp) and isinstance(sub.op, ast.Or):
            if any(
                isinstance(value, ast.Name) and value.id in stream_params
                for value in sub.values
            ):
                collect(sub.values)
        elif isinstance(sub, ast.If) and _is_absent_stream_test(sub.test, stream_params):
            collect(sub.body)
        elif isinstance(sub, ast.IfExp) and _is_absent_stream_test(sub.test, stream_params):
            collect([sub.body, sub.orelse])
    return exempt


def _is_random_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "Random":
        return isinstance(func.value, ast.Name) and func.value.id == "random"
    return isinstance(func, ast.Name) and func.id == "Random"


def _is_random_annotation(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Random"
    if isinstance(annotation, ast.Name):
        return annotation.id == "Random"
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.endswith("Random")
    return False


@register_project
class PublicApiRule(ProjectRule):
    """RL106: a package's ``__init__.py`` is its public contract.  Every
    name in ``__all__`` must actually be bound there, and every
    ``from repro.x import name`` in an ``__init__`` must name something
    the source module really defines -- otherwise the export list drifts
    from the implementation and imports fail only at use time."""

    rule_id = "RL106"
    summary = "__init__ exports must match definitions (__all__ and re-imports resolve)"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for name, module in sorted(project.modules.items()):
            if not module.is_package:
                continue
            scope = project.callgraph.scopes[name]
            yield from self._check_all(project, module, scope)
            yield from self._check_reimports(project, module)

    def _check_all(
        self, project: ProjectContext, module: ProjectModule, scope: ModuleScope
    ) -> Iterator[Finding]:
        for stmt in module.context.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                continue
            if not isinstance(stmt.value, (ast.List, ast.Tuple)):
                continue
            for element in stmt.value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    continue
                exported = element.value
                if exported in scope.bindings or exported == "__version__":
                    continue
                if f"{module.name}.{exported}" in project.modules:
                    continue  # a submodule is importable without a binding
                yield self.finding(
                    module,
                    element,
                    f"__all__ exports '{exported}' but {module.name}'s "
                    "__init__ neither defines nor imports it",
                )

    def _check_reimports(
        self, project: ProjectContext, module: ProjectModule
    ) -> Iterator[Finding]:
        for edge in project.graph.edges:
            if edge.source != module.name or not edge.names:
                continue
            target = project.modules.get(edge.target)
            if target is None:
                continue
            target_scope = project.callgraph.scopes[edge.target]
            for imported in edge.names:
                if imported == "*":
                    continue
                if imported in target_scope.bindings:
                    continue
                if f"{edge.target}.{imported}" in project.modules:
                    continue
                yield self.finding(
                    module,
                    _node_at(module, edge.lineno),
                    f"'from {edge.target} import {imported}': "
                    f"{edge.target} does not define '{imported}' at top "
                    "level; the re-export has drifted from the definition",
                )
