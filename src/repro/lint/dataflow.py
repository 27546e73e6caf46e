"""Shared AST dataflow helpers for the project rules (RL102-RL105).

These are deliberately syntactic approximations: each helper answers one
narrow question ("is this expression statically a set?", "which
module-level names does this function mutate?", "does this value escape
the function?") precisely enough for a conservative lint, without
attempting real abstract interpretation.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.rules import _GLOBAL_DRAWS

#: Attribute calls that draw from (or hand out) an RNG stream.  Includes
#: the numpy ``Generator`` draw methods the columnar engine uses
#: (``integers``, ``standard_normal``, ``permutation``), so the project
#: rules treat vectorized draws exactly like scalar ones.
RNG_DRAW_ATTRS = (
    frozenset(_GLOBAL_DRAWS)
    | {"stream", "spawn"}
    | {"integers", "standard_normal", "permutation", "default_rng"}
)

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "setdefault",
        "appendleft",
        "extendleft",
        "sort",
        "reverse",
    }
)

#: Constructors whose result is a mutable container.
MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)

#: Reductions whose result depends on iteration order for floats.
ORDER_SENSITIVE_REDUCERS = frozenset({"sum", "fsum", "reduce", "join", "accumulate"})


def is_mutable_literal(node: ast.AST) -> bool:
    """True for list/dict/set literals, comprehensions, and mutable
    constructor calls."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in MUTABLE_CONSTRUCTORS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in MUTABLE_CONSTRUCTORS:
            return True
    return False


def mutable_module_globals(tree: ast.Module) -> Dict[str, ast.AST]:
    """Module-level names bound to mutable containers, with their nodes."""
    out: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            if is_mutable_literal(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out[target.id] = node
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if is_mutable_literal(node.value) and isinstance(node.target, ast.Name):
                out[node.target.id] = node
    return out


def mutated_names(func: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Names the function mutates: mutator-method calls, subscript or
    augmented assignment, and rebinding through ``global``.

    Yields ``(name, offending node)`` pairs; local shadowing is the
    caller's problem (pair this with :func:`local_bindings`).
    """
    declared_global: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if isinstance(receiver, ast.Name) and node.func.attr in MUTATOR_METHODS:
                yield receiver.id, node
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    yield target.value.id, node
                elif (
                    isinstance(node, ast.AugAssign)
                    and isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    yield target.id, node
                elif (
                    isinstance(node, ast.Assign)
                    and isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    yield target.id, node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    yield target.value.id, node


def local_bindings(func: ast.AST) -> Set[str]:
    """Names bound locally inside ``func`` (params, assignments, loops,
    with-targets, comprehension targets, nested defs)."""
    out: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            out.add(arg.arg)
    declared_global: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name) and isinstance(
                        name_node.ctx, ast.Store
                    ):
                        out.add(name_node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    out.add(name_node.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for name_node in ast.walk(item.optional_vars):
                        if isinstance(name_node, ast.Name):
                            out.add(name_node.id)
        elif isinstance(node, ast.comprehension):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    out.add(name_node.id)
    return out - declared_global


def setish_names(scope: ast.AST, module_tree: Optional[ast.Module] = None) -> Set[str]:
    """Names statically known to hold a ``set``/``frozenset`` value:
    locals of ``scope`` plus (optionally) module-level globals.

    A name only qualifies when *every* assignment to it is setish: the
    common ``seen = sorted(seen)`` rebinding turns the value back into a
    deterministic list, so names with any non-setish assignment are
    demoted (to a fixed point, since demoting one name can falsify
    ``s = s | t`` for another)."""
    assignments: List[Tuple[str, ast.AST]] = []
    sources: List[ast.AST] = [scope]
    if module_tree is not None:
        sources.append(module_tree)
    for source in sources:
        nodes = source.body if isinstance(source, ast.Module) else list(ast.walk(source))
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        assignments.append((target.id, value))
    out: Set[str] = {
        name
        for name, value in assignments
        if is_setish_expr(value, frozenset())
    }
    changed = True
    while changed:
        changed = False
        known = frozenset(out)
        for name, value in assignments:
            if name in out and not is_setish_expr(value, known):
                out.discard(name)
                changed = True
    return out


def is_setish_expr(node: ast.AST, known_sets: frozenset) -> bool:
    """True when ``node`` statically evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name) and node.id in known_sets:
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        # s.union(...), s.intersection(...), s.difference(...) on a known set
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("union", "intersection", "difference", "symmetric_difference")
            and is_setish_expr(func.value, known_sets)
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_setish_expr(node.left, known_sets) or is_setish_expr(
            node.right, known_sets
        )
    return False


def draws_rng(node: ast.AST) -> bool:
    """True when the subtree contains a call that draws from an RNG
    stream (``rng.random()``, ``registry.stream(...)``, ...)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in RNG_DRAW_ATTRS:
                return True
    return False


def unseeded_random_calls(tree: ast.AST) -> List[ast.Call]:
    """Every ``random.Random()`` / ``Random()`` call with no arguments.

    An argument-free ``Random()`` seeds itself from OS entropy -- there
    is no way to replay it.
    """
    aliases = {"random"}
    from_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name == "Random":
                    from_names.add(alias.asname or alias.name)
    out: List[ast.Call] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node.args or node.keywords:
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                func.attr == "Random"
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ):
                out.append(node)
        elif isinstance(func, ast.Name) and func.id in from_names:
            out.append(node)
    return out


def escaping_expressions(func: ast.AST) -> List[ast.AST]:
    """Expressions whose value escapes ``func``: returned, yielded,
    passed as a call argument, or stored on an attribute/subscript/
    module global.  Locals that are later returned or passed escape too
    (one level of assignment is followed)."""
    escaping: List[ast.AST] = []
    escaping_locals: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            escaping.append(node.value)
            if isinstance(node.value, ast.Name):
                escaping_locals.add(node.value.id)
        elif isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                escaping.append(arg)
                if isinstance(arg, ast.Name):
                    escaping_locals.add(arg.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    escaping.append(node.value)
                    if isinstance(node.value, ast.Name):
                        escaping_locals.add(node.value.id)
    # Second pass: assignments whose target later escapes.
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in escaping_locals:
                    escaping.append(node.value)
    return escaping
