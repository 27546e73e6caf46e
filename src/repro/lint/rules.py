"""The per-file reprolint rule set (RL001-RL008, RL304).

Each rule encodes one determinism or correctness invariant of this
repository; ``docs/linting.md`` documents the rationale behind every
rule and how to suppress a finding that is provably safe.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding

#: Packages whose code runs inside simulations (simulated time only) or on
#: engine/server hot paths.  ``experiments`` and ``sat`` are deliberately
#: excluded: plotting and file I/O may touch the wall clock.  ``parallel``
#: and ``bench`` are excluded too -- measuring worker wall-clock durations
#: and benchmark timings is their purpose, and they never run *inside* a
#: simulation.
SIM_PACKAGES: FrozenSet[str] = frozenset(
    {"sim", "dca", "core", "volunteer", "grid", "mapreduce"}
)

#: Module-level draw functions of :mod:`random` (the shared global stream).
_GLOBAL_DRAWS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)

#: Module-level draw functions of ``numpy.random`` (the legacy global
#: RandomState).  Same hazard as the global ``random`` module: one stray
#: draw perturbs every later draw in the shared stream.  The columnar
#: engine's seeded per-stream ``default_rng(seed)`` generators are the
#: sanctioned alternative.
_NUMPY_GLOBAL_DRAWS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "beta",
        "binomial",
        "exponential",
        "gamma",
        "poisson",
        "get_state",
        "set_state",
    }
)

_WALL_CLOCK_TIME = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: Identifier words that mark an expression as a probability/confidence.
_PROB_PREFIXES = ("probab", "confid", "credib", "belief", "likelihood", "reliab")
_PROB_EXACT = frozenset({"prob"})

_WORD_RE = re.compile(r"[a-z]+")

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)


def _module_aliases(tree: ast.Module, module: str) -> FrozenSet[str]:
    """Local names bound to ``import module`` (including ``as`` aliases)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return frozenset(aliases)


def _from_imports(tree: ast.Module, module: str) -> Dict[str, Tuple[str, ast.ImportFrom]]:
    """Local name -> (original name, import node) for ``from module import ...``."""
    out: Dict[str, Tuple[str, ast.ImportFrom]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                out[alias.asname or alias.name] = (alias.name, node)
    return out


@register
class NoGlobalRandomRule(Rule):
    """RL001: simulations must draw from RngRegistry streams, never the
    process-global ``random`` module (one stray draw perturbs every
    subsequent draw in the shared stream and breaks replay)."""

    rule_id = "RL001"
    summary = "no draws from the global random module (use RngRegistry streams)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = _module_aliases(module.tree, "random")
        for name, (original, node) in _from_imports(module.tree, "random").items():
            if original in _GLOBAL_DRAWS:
                yield self.finding(
                    module,
                    node,
                    f"importing random.{original} binds the shared global RNG stream; "
                    "draw from an RngRegistry stream instead",
                )
            del name
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not (isinstance(node.value, ast.Name) and node.value.id in aliases):
                continue
            if node.attr in _GLOBAL_DRAWS:
                yield self.finding(
                    module,
                    node,
                    f"random.{node.attr} draws from the shared global RNG stream; "
                    "use a random.Random handed out by RngRegistry",
                )
            elif node.attr == "SystemRandom":
                yield self.finding(
                    module,
                    node,
                    "random.SystemRandom is a nondeterministic entropy source; "
                    "seed an RngRegistry instead",
                )
        yield from self._check_numpy(module)

    def _check_numpy(self, module: ModuleContext) -> Iterator[Finding]:
        """The same invariant for numpy: no legacy global-RandomState
        draws (``np.random.rand`` etc.), no unseeded ``default_rng()``
        -- columnar/array code must seed its generators from registry
        spawn seeds, exactly like :mod:`repro.dca.columnar` does."""
        tree = module.tree
        numpy_aliases = set()  # names bound to the numpy package itself
        random_aliases = set()  # names bound to the numpy.random module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            random_aliases.add(alias.asname)
                        else:
                            numpy_aliases.add("numpy")
        for name, (original, node) in _from_imports(tree, "numpy").items():
            if original == "random":
                random_aliases.add(name)
        default_rng_aliases = set()  # names bound to numpy.random.default_rng
        for name, (original, node) in _from_imports(tree, "numpy.random").items():
            if original in _NUMPY_GLOBAL_DRAWS:
                yield self.finding(
                    module,
                    node,
                    f"importing numpy.random.{original} binds the legacy global "
                    "RandomState stream; use a seeded np.random.default_rng(seed) "
                    "generator instead",
                )
            elif original == "default_rng":
                default_rng_aliases.add(name)

        def is_numpy_random(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in random_aliases
            return (
                isinstance(expr, ast.Attribute)
                and expr.attr == "random"
                and isinstance(expr.value, ast.Name)
                and expr.value.id in numpy_aliases
            )

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and is_numpy_random(node.value):
                if node.attr in _NUMPY_GLOBAL_DRAWS:
                    yield self.finding(
                        module,
                        node,
                        f"np.random.{node.attr} draws from numpy's legacy global "
                        "RandomState; use a seeded np.random.default_rng(seed) "
                        "generator instead",
                    )
            if not (isinstance(node, ast.Call) and not node.args and not node.keywords):
                continue
            func = node.func
            unseeded = (
                isinstance(func, ast.Attribute)
                and func.attr == "default_rng"
                and is_numpy_random(func.value)
            ) or (isinstance(func, ast.Name) and func.id in default_rng_aliases)
            if unseeded:
                yield self.finding(
                    module,
                    node,
                    "default_rng() without a seed pulls OS entropy and is "
                    "nondeterministic; pass a registry-derived seed "
                    "(e.g. registry.spawn(name).seed)",
                )


def _iter_wall_clock_uses(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """Yield ``(node, description)`` for every wall-clock read in ``tree``.

    Shared detector behind RL002 (simulation packages) and RL008 (the
    ``obs`` package outside its ``host*`` modules): from-imports of
    ``time`` draw functions, ``time.time()``-style calls through module
    aliases, and ``datetime.now()``/``date.today()`` in both spellings.
    """
    time_aliases = _module_aliases(tree, "time")
    datetime_aliases = _module_aliases(tree, "datetime")
    from_time = _from_imports(tree, "time")
    from_datetime = _from_imports(tree, "datetime")

    for local, (original, node) in from_time.items():
        if original in _WALL_CLOCK_TIME:
            yield node, f"time.{original} reads the wall clock"
        del local
    datetime_classes = {
        local for local, (original, _) in from_datetime.items() if original in ("datetime", "date")
    }

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        base = func.value
        # time.time(), time.monotonic(), ...
        if (
            isinstance(base, ast.Name)
            and base.id in time_aliases
            and func.attr in _WALL_CLOCK_TIME
        ):
            yield node, f"time.{func.attr}() reads the wall clock"
        # datetime.datetime.now(), datetime.date.today()
        elif (
            func.attr in _WALL_CLOCK_DATETIME
            and isinstance(base, ast.Attribute)
            and base.attr in ("datetime", "date")
            and isinstance(base.value, ast.Name)
            and base.value.id in datetime_aliases
        ):
            yield node, f"datetime.{base.attr}.{func.attr}() reads the wall clock"
        # datetime.now() / date.today() via from-import
        elif (
            func.attr in _WALL_CLOCK_DATETIME
            and isinstance(base, ast.Name)
            and base.id in datetime_classes
        ):
            yield node, f"{base.id}.{func.attr}() reads the wall clock"


@register
class NoWallClockRule(Rule):
    """RL002: simulation packages run on simulated time; reading the wall
    clock makes event timestamps (and everything derived from them)
    irreproducible."""

    rule_id = "RL002"
    summary = "no wall-clock reads inside simulation packages (simulated time only)"
    packages = SIM_PACKAGES

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node, description in _iter_wall_clock_uses(module.tree):
            yield self.finding(
                module,
                node,
                f"{description}; use Simulator.now (simulated time) instead",
            )


def _probability_words(node: ast.AST) -> bool:
    """True if the expression's identifiers mark it as a probability."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.arg):  # pragma: no cover - not an expression
            names.append(sub.arg)
    for name in names:
        for word in _WORD_RE.findall(name.lower()):
            if word in _PROB_EXACT or word.startswith(_PROB_PREFIXES):
                return True
    return False


def _non_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (str, bool, bytes)) or (
        isinstance(node, ast.Constant) and node.value is None
    )


def _approx_call(node: ast.AST) -> bool:
    """True for a call to ``approx`` or ``pytest.approx``, which compares
    with a tolerance whatever operator spells it."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "approx"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "approx"
        and isinstance(func.value, ast.Name)
        and func.value.id == "pytest"
    )


@register
class NoFloatEqualityOnProbabilitiesRule(Rule):
    """RL003: probabilities and confidences are floats built from products
    and complements; exact ``==``/``!=`` on them silently depends on
    rounding.  Require ``math.isclose`` or an explicit tolerance.

    The self-comparison NaN idiom (``x == x``) is exempt, and so is a
    compare against ``pytest.approx(...)``, which carries its tolerance.
    """

    rule_id = "RL003"
    summary = "no float ==/!= on probability/confidence expressions (use math.isclose)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if ast.dump(left) == ast.dump(right):
                    continue  # NaN-check idiom (x == x)
                if _non_float_literal(left) or _non_float_literal(right):
                    continue
                if _approx_call(left) or _approx_call(right):
                    continue
                if _probability_words(left) or _probability_words(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        module,
                        node,
                        f"exact float {symbol} on a probability/confidence expression; "
                        "use math.isclose or an explicit tolerance",
                    )
                    break


@register
class NoMutableDefaultArgsRule(Rule):
    """RL004: a mutable default is created once at definition time and
    shared across calls -- state leaks between invocations."""

    rule_id = "RL004"
    summary = "no mutable default arguments"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {name}(); "
                        "use None and create the value inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _MUTABLE_CALLS:
                return True
            if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_CALLS:
                return True
        return False


@register
class RngStreamNameLiteralRule(Rule):
    """RL005: RNG stream names must be string literals, so the complete
    set of streams a simulation uses can be audited statically (grep for
    ``.stream("``) and collisions spotted in review.

    Literal-*prefixed* f-strings (``f"replicate:{index}"``) are accepted:
    families of per-index streams are still auditable by their prefix,
    and the parallel replication engine derives one spawn key per
    replicate this way.  Also accepted are *resolvable stream-label
    constants*: a name bound at module level to a string literal or a
    ``StreamLabel("...")`` call, or imported from
    :mod:`repro.sim.streams` (the canonical label module) -- the literal
    is still statically auditable, just defined once.  A fully dynamic
    name (``f"{name}"``, a local variable, a call) remains a finding.
    """

    rule_id = "RL005"
    summary = "RNG stream/spawn names must be string literals (or literal-prefixed f-strings)"

    #: Modules whose exported constants are trusted stream labels.
    LABEL_MODULES = ("repro.sim.streams", "repro.sim")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        resolvable = self._resolvable_labels(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in ("stream", "spawn"):
                continue
            name_arg: Optional[ast.AST] = None
            if node.args:
                name_arg = node.args[0]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "name":
                        name_arg = keyword.value
            if name_arg is None:
                continue
            if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
                continue
            if self._literal_prefixed(name_arg):
                continue
            if isinstance(name_arg, ast.Name) and name_arg.id in resolvable:
                continue
            yield self.finding(
                module,
                name_arg,
                f".{node.func.attr}() name must be a string literal, a "
                "literal-prefixed f-string, or a module-level StreamLabel "
                "constant so the stream set is statically auditable",
            )

    @classmethod
    def _resolvable_labels(cls, tree: ast.Module) -> FrozenSet[str]:
        """Module-level names that statically resolve to a stream label."""
        out = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                is_label = (
                    isinstance(value, ast.Constant) and isinstance(value.value, str)
                ) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "StreamLabel"
                    and value.args
                    and isinstance(value.args[0], ast.Constant)
                    and isinstance(value.args[0].value, str)
                )
                if not is_label:
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
            elif isinstance(stmt, ast.ImportFrom) and stmt.module in cls.LABEL_MODULES:
                for alias in stmt.names:
                    if alias.name != "StreamLabel" and alias.name != "*":
                        out.add(alias.asname or alias.name)
        return frozenset(out)

    @staticmethod
    def _literal_prefixed(node: ast.AST) -> bool:
        """True for f-strings whose first piece is a non-empty literal."""
        if not isinstance(node, ast.JoinedStr) or not node.values:
            return False
        first = node.values[0]
        return (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value != ""
        )


@register
class NoSwallowedExceptionsRule(Rule):
    """RL006: a bare ``except:`` (or ``except Exception: pass``) on an
    engine/server hot path hides StopSimulation, vote-accounting bugs, and
    determinism violations alike."""

    rule_id = "RL006"
    summary = "no bare/blanket exception swallowing on engine and server hot paths"
    packages = SIM_PACKAGES

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except catches StopSimulation and KeyboardInterrupt; "
                    "name the exception type",
                )
                continue
            blanket = (
                isinstance(node.type, ast.Name) and node.type.id in ("Exception", "BaseException")
            ) or (
                isinstance(node.type, ast.Attribute)
                and node.type.attr in ("Exception", "BaseException")
            )
            if blanket and all(self._is_noop(stmt) for stmt in node.body):
                name = node.type.attr if isinstance(node.type, ast.Attribute) else node.type.id
                yield self.finding(
                    module,
                    node,
                    f"except {name}: pass silently swallows failures on a hot path; "
                    "handle or re-raise",
                )

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return isinstance(stmt, ast.Expr) and (
            isinstance(stmt.value, ast.Constant) and stmt.value.value is Ellipsis
        )


#: functools caching decorators that memoize on the full argument tuple.
_CACHE_DECORATORS = frozenset({"lru_cache", "cache"})


@register
class NoCachedMethodsRule(Rule):
    """RL007: ``functools.lru_cache``/``cache`` on a *method* keys the
    cache on ``self``, so every instance that ever calls it is pinned in
    the cache forever (an unbounded memory leak for ``maxsize=None``) and
    logically-equal instances miss each other's entries.  Memoize a
    module-level function keyed on the value-typed arguments instead (as
    :mod:`repro.core.confidence` does), or precompute in ``__init__``.

    Static methods take no ``self`` and are exempt; ``functools.cached_property``
    stores on the instance, not a shared cache, and is never flagged.
    """

    rule_id = "RL007"
    summary = "no functools.lru_cache/cache on methods (the cache pins self alive)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(self._is_staticmethod(d) for d in stmt.decorator_list):
                    continue
                for decorator in stmt.decorator_list:
                    name = self._cache_decorator_name(decorator)
                    if name is not None:
                        yield self.finding(
                            module,
                            decorator,
                            f"@{name} on method {node.name}.{stmt.name} keys the "
                            "cache on self, pinning every instance alive; memoize "
                            "a module-level function on value-typed arguments "
                            "instead",
                        )

    @staticmethod
    def _is_staticmethod(decorator: ast.AST) -> bool:
        return (isinstance(decorator, ast.Name) and decorator.id == "staticmethod") or (
            isinstance(decorator, ast.Attribute) and decorator.attr == "staticmethod"
        )

    @classmethod
    def _cache_decorator_name(cls, decorator: ast.AST) -> Optional[str]:
        """The decorator's cache name if it is lru_cache/cache, else None."""
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id in _CACHE_DECORATORS:
            return target.id
        if isinstance(target, ast.Attribute) and target.attr in _CACHE_DECORATORS:
            base = target.value
            if isinstance(base, ast.Name) and base.id == "functools":
                return f"functools.{target.attr}"
            return target.attr
        return None


#: Registry factory methods that mint metric families directly.
_REGISTRY_FACTORIES = frozenset({"counter", "gauge", "histogram"})
#: Attribute names through which instrumented code could reach a registry.
_REGISTRY_HANDLES = frozenset({"metrics", "registry", "_registry"})


@register
class TelemetryDisciplineRule(Rule):
    """RL008: two halves of the telemetry discipline.

    In ``repro.obs`` (outside its ``host*`` modules), no wall-clock
    reads: telemetry is clocked on *simulated* time so that recording a
    run can never perturb it or make its traces irreproducible.  Capture
    metadata that genuinely wants a wall-clock stamp goes through
    :mod:`repro.obs.host`.

    In simulation packages, no direct metric mutation: instrumented code
    must go through the :class:`~repro.obs.Recorder` API
    (``count``/``gauge``/``observe``), never reach into a registry
    (``<x>.metrics.counter(...)``, ``<x>.registry.gauge(...)``).  The
    recorder indirection is what keeps telemetry-off runs zero-cost and
    lets one instrumentation site feed every exporter.
    """

    rule_id = "RL008"
    summary = (
        "telemetry discipline: no wall clock in repro.obs (except host*), "
        "no direct metric-registry mutation in simulation packages"
    )
    packages = SIM_PACKAGES | {"obs"}

    #: Module basename prefix exempt from the obs wall-clock ban.
    HOST_PREFIX = "host"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.package == "obs":
            yield from self._check_obs_wall_clock(module)
        else:
            yield from self._check_sim_metric_mutation(module)

    def _check_obs_wall_clock(self, module: ModuleContext) -> Iterator[Finding]:
        basename = module.path.replace("\\", "/").rsplit("/", 1)[-1]
        if basename.startswith(self.HOST_PREFIX):
            return
        for node, description in _iter_wall_clock_uses(module.tree):
            yield self.finding(
                module,
                node,
                f"{description}; repro.obs is clocked on simulated time -- "
                "only repro/obs/host*.py may read the host clock",
            )

    def _check_sim_metric_mutation(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if func.attr not in _REGISTRY_FACTORIES:
                continue
            base = func.value
            if isinstance(base, ast.Attribute) and base.attr in _REGISTRY_HANDLES:
                yield self.finding(
                    module,
                    node,
                    f".{base.attr}.{func.attr}(...) mutates a metrics registry "
                    "directly; simulation code must record through the "
                    "Recorder API (count/gauge/observe)",
                )


#: Packages whose array code feeds decisions or reports; an unstable
#: sort there breaks the ``jobs=N == jobs=1`` byte-identity guarantee.
DECISION_PACKAGES: FrozenSet[str] = frozenset({"core", "sim", "dca", "parallel", "bench"})

#: ``kind=`` spellings that guarantee a stable order.
STABLE_SORT_KINDS = frozenset({"stable", "mergesort"})


def unstable_sort_call(node: ast.AST, numpy_names: FrozenSet[str]) -> Optional[str]:
    """How ``node`` spells an array sort with no stable ``kind=``, else None.

    Matches ``np.sort``/``np.argsort`` calls and ``.argsort()`` method
    calls, which only arrays have.  A bare ``.sort()`` is not matched:
    its receiver could be a list, whose ``sort`` takes no ``kind``.  A
    ``kind=`` that is not a literal, or ``**kwargs`` that may carry one,
    is not evidence of instability.
    """
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    func = node.func
    if isinstance(func.value, ast.Name) and func.value.id in numpy_names:
        if func.attr not in ("sort", "argsort"):
            return None
        label = f"{func.value.id}.{func.attr}"
    elif func.attr == "argsort":
        label = ".argsort()"
    else:
        return None
    for keyword in node.keywords:
        if keyword.arg is None:
            return None
        if keyword.arg == "kind":
            if not isinstance(keyword.value, ast.Constant):
                return None
            if keyword.value.value in STABLE_SORT_KINDS:
                return None
    return label


@register
class StableSortRule(Rule):
    """RL304: ``sort``/``argsort`` without ``kind="stable"`` break ties in
    an implementation-defined introsort order, so equal-key rows can
    reorder between platforms and numpy versions.  In code that feeds
    decisions or reports that silently breaks the ``jobs=N == jobs=1``
    byte identity, and one CI host never shows it."""

    rule_id = "RL304"
    summary = "no unstable array sorts in decision paths (pass kind=\"stable\")"
    packages = DECISION_PACKAGES

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        numpy_names = _module_aliases(module.tree, "numpy")
        for node in ast.walk(module.tree):
            label = unstable_sort_call(node, numpy_names)
            if label is not None:
                yield self.finding(
                    module,
                    node,
                    f"{label} sorts without kind=\"stable\"; ties break in an "
                    "implementation-defined order and equal-key rows can "
                    "reorder between platforms -- pass kind=\"stable\"",
                )
