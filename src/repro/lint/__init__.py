"""reprolint: determinism & correctness static analysis for this repo.

Two complementary parts:

* a static AST pass (:mod:`repro.lint.rules`, driven by
  :class:`~repro.lint.engine.LintEngine`) that rejects the known
  *sources* of nondeterminism -- global-RNG draws, wall-clock reads in
  simulation code, dynamic RNG stream names, unstable array sorts in
  decision paths (RL304) -- plus classic correctness traps (mutable
  defaults, float ``==`` on probabilities, swallowed exceptions on hot
  paths);
* a whole-program pass (``repro-lint --project``; :mod:`repro.lint.graph`,
  :mod:`repro.lint.project_rules`) that sees *between* modules:
  layering violations and import cycles (RL101).

What no static rule can see -- a replay that diverges -- is pinned at
runtime by the determinism suite in ``tests/determinism/``: every probe
digest pinned, replayed in one process, and replayed under two
``PYTHONHASHSEED`` values.  The linter itself imports no simulation code.

Run the linter with ``python -m repro.lint [paths]`` or the
``repro-lint`` console script; see ``docs/linting.md``.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintEngine, ModuleContext, Rule, register, registered_rules
from repro.lint.findings import Finding, Severity
from repro.lint.graph import ImportGraph, find_package_root, load_project
from repro.lint.project import ProjectReport, lint_project
from repro.lint.project_rules import (
    ALLOWED_IMPORTS,
    ProjectContext,
    ProjectRule,
    register_project,
    registered_project_rules,
)
from repro.lint.sarif import render_sarif, sarif_log

__all__ = [
    "ALLOWED_IMPORTS",
    "Finding",
    "ImportGraph",
    "LintConfig",
    "LintEngine",
    "ModuleContext",
    "ProjectContext",
    "ProjectReport",
    "ProjectRule",
    "Rule",
    "Severity",
    "find_package_root",
    "lint_project",
    "load_config",
    "load_project",
    "register",
    "register_project",
    "registered_project_rules",
    "registered_rules",
    "render_sarif",
    "sarif_log",
]
