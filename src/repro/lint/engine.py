"""The reprolint rule engine: rule registry, suppression, file walking.

A rule is a class with a ``rule_id`` (``RLxxx``), a default severity, and
a :meth:`Rule.check` generator that inspects a parsed module and yields
findings.  The engine parses each file once, hands every enabled rule the
same :class:`ModuleContext`, and filters out findings silenced by
``# reprolint: disable=RLxxx`` comments before reporting.

Rules can restrict themselves to a set of top-level ``repro`` packages
via :attr:`Rule.packages`; the engine derives the package from the path
segment after the last ``repro`` directory, so fixtures can opt into a
scope by using synthetic paths like ``repro/sim/fixture.py``.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Type

from repro.lint.findings import Finding, Severity

#: Inline suppression: ``# reprolint: disable=RL001`` or ``disable=RL001,RL003``.
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Z0-9,\s]+)")
#: Whole-file suppression: ``# reprolint: disable-file=RL005`` anywhere.
_SUPPRESS_FILE_RE = re.compile(r"#\s*reprolint:\s*disable-file=([A-Z0-9,\s]+)")
#: Next-line suppression: ``# reprolint: disable-next-line=RL001`` silences
#: the following physical line (useful when the offending line has no room).
_SUPPRESS_NEXT_RE = re.compile(r"#\s*reprolint:\s*disable-next-line=([A-Z0-9,\s]+)")
_RULE_ID_RE = re.compile(r"RL\d{3}")

#: Rule id used for files that fail to parse (not a registered rule).
PARSE_ERROR_RULE = "RL000"


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: str
    source: str
    tree: ast.Module
    #: The ``repro`` subpackage this module lives in (``"sim"``, ``"dca"``,
    #: ...) or ``""`` when it cannot be determined from the path.
    package: str = ""
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            package=_repro_package(path),
            lines=source.splitlines(),
        )


def _repro_package(path: str) -> str:
    """Top-level ``repro`` subpackage of ``path``, or ``""`` if unknown."""
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            rest = parts[i + 1 :]
            if len(rest) > 1:
                return rest[0]
            return ""
    return ""


class Rule(abc.ABC):
    """Base class for all reprolint rules."""

    #: Stable identifier, ``RLxxx``.
    rule_id: str = "RL999"
    #: One-line summary shown by ``--list-rules``.
    summary: str = ""
    severity: Severity = Severity.ERROR
    #: ``repro`` subpackages the rule applies to, or ``None`` for all.
    packages: Optional[FrozenSet[str]] = None

    def applies_to(self, module: ModuleContext) -> bool:
        if self.packages is None:
            return True
        return module.package in self.packages

    @abc.abstractmethod
    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for ``module``."""

    def finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """The registry, keyed by rule id (importing ensures rules are loaded)."""
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


def suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids silenced on that line.

    Line 0 holds whole-file suppressions (``disable-file=``).
    """
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_FILE_RE.search(line)
        if match:
            out.setdefault(0, set()).update(_RULE_ID_RE.findall(match.group(1)))
            continue
        match = _SUPPRESS_NEXT_RE.search(line)
        if match:
            out.setdefault(lineno + 1, set()).update(_RULE_ID_RE.findall(match.group(1)))
            continue
        match = _SUPPRESS_RE.search(line)
        if match:
            out.setdefault(lineno, set()).update(_RULE_ID_RE.findall(match.group(1)))
    return out


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``*.py`` files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


class LintEngine:
    """Runs a set of rules over sources, honouring suppression comments."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        if rules is None:
            rules = [cls() for _, cls in sorted(registered_rules().items())]
        self.rules: List[Rule] = list(rules)
        self.files_checked = 0
        self.suppressed_count = 0

    def lint_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Lint one in-memory module; parse failures become RL000 findings."""
        self.files_checked += 1
        try:
            module = ModuleContext.parse(source, path)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule_id=PARSE_ERROR_RULE,
                    severity=Severity.ERROR,
                    message=f"could not parse file: {exc.msg}",
                )
            ]
        silenced = suppressions(source)
        file_wide = silenced.get(0, set())
        findings: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(module):
                continue
            for finding in rule.check(module):
                if finding.rule_id in file_wide or finding.rule_id in silenced.get(
                    finding.line, set()
                ):
                    self.suppressed_count += 1
                    continue
                findings.append(finding)
        return sorted(findings)

    def lint_file(self, path: Path) -> List[Finding]:
        return self.lint_source(path.read_text(encoding="utf-8"), str(path))
