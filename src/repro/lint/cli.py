"""Command-line entry point: ``python -m repro.lint`` / ``repro-lint``.

Two modes, one run path (:func:`repro.lint.project.lint_project`):

* **per-file** (default): run the RL0xx rules and RL304 (unstable
  sorts) over the given paths;
* **project** (``--project``): additionally build the import graph over
  the ``repro`` package and run the whole-program layering rule (RL101).
  The retired ``--flows`` and ``--tensors`` flags are still accepted, as
  ``--project``.

In both modes per-file linting fans out over ``--jobs`` worker
processes via :func:`repro.parallel.parallel_map`, and findings are
globally sorted, so output is byte-identical for any ``--jobs``.  The
linter keeps no state between runs; the retired ``--no-cache`` flag is
accepted and does nothing.

Output formats (``--output`` / legacy ``-f/--format``): ``text``,
``json`` (schema-versioned payload), and ``sarif`` (SARIF 2.1.0, for CI
annotation upload).  Known findings are silenced inline, one
justified ``# reprolint: disable=`` comment each.

Exit codes: 0 = clean, 1 = error-severity findings, 2 = usage error,
3 = internal error (the linter itself crashed).  CI relies on the 1/3
split: findings are tolerated where a job only renders them, but a
crashed linter must never be mistaken for a clean-ish run.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import registered_rules
from repro.lint.findings import Finding, Severity
from repro.lint.project import lint_project
from repro.lint.project_rules import registered_project_rules
from repro.lint.sarif import render_sarif

#: Exit codes (see module docstring); CI scripts match on these.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: Bump on any incompatible change to the ``--output json`` payload.
#: 3: the ``baselined``/``stale_baseline`` fields went with the baseline.
JSON_SCHEMA_VERSION = 3
#: The ``schema`` field of the JSON payload (BENCH_*.json convention).
JSON_SCHEMA = f"repro-lint-report/{JSON_SCHEMA_VERSION}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism & correctness static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.reprolint] paths)",
    )
    parser.add_argument(
        "-f",
        "--format",
        "--output",
        dest="format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="whole-program mode: run the RL101 layering rule too",
    )
    # The flow (RL2xx) and tensor (RL3xx) tiers are retired; their flags
    # are still accepted, as --project, so existing invocations keep
    # working.
    parser.add_argument("--flows", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tensors", action="store_true", help=argparse.SUPPRESS)
    # The linter keeps no cache; --no-cache is still accepted, as a no-op,
    # so existing invocations keep working.
    parser.add_argument("--no-cache", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for per-file linting "
        "(default: 1; output is byte-identical for any N)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (overrides config enable)",
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        help="comma-separated rule ids to skip (adds to config disable)",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        help="pyproject.toml to read [tool.reprolint] from (default: auto-discover)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _split_rules(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [token.strip() for token in raw.split(",") if token.strip()]


def _resolve_config(args: argparse.Namespace) -> LintConfig:
    pyproject = Path(args.config) if args.config else None
    if pyproject is not None and not pyproject.is_file():
        raise FileNotFoundError(f"config file not found: {pyproject}")
    config = load_config(pyproject)
    selected = _split_rules(args.select)
    if selected is not None:
        config.enable = selected
    disabled = _split_rules(args.disable)
    if disabled is not None:
        config.disable = list(config.disable) + disabled
    return config


def _tool_version() -> str:
    import repro

    return getattr(repro, "__version__", "0")


def _render_text(findings: List[Finding], files_checked: int, suppressed: int) -> str:
    lines = [finding.format() for finding in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    summary = (
        f"{files_checked} file(s) checked: "
        f"{errors} error(s), {warnings} warning(s), "
        f"{suppressed} suppressed"
    )
    lines.append(summary)
    return "\n".join(lines)


def _render_json(findings: List[Finding], files_checked: int, suppressed: int) -> str:
    summary: Dict[str, int] = {}
    for finding in findings:
        summary[finding.rule_id] = summary.get(finding.rule_id, 0) + 1
    payload = {
        "schema": JSON_SCHEMA,
        "version": JSON_SCHEMA_VERSION,
        "files_checked": files_checked,
        "suppressed": suppressed,
        "findings": [finding.as_dict() for finding in findings],
        "summary": summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _rule_metadata(rule_ids: Sequence[str]) -> List[Tuple[str, str, Severity]]:
    registry: Dict[str, type] = {}
    registry.update(registered_rules())
    registry.update(registered_project_rules())
    return [
        (rule_id, registry[rule_id].summary, registry[rule_id].severity)
        for rule_id in sorted(rule_ids)
        if rule_id in registry
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except Exception:
        traceback.print_exc()
        print(
            "repro-lint: internal error -- this is a linter bug, not a finding",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


def _run(args: argparse.Namespace) -> int:
    file_registry = registered_rules()
    project_registry = registered_project_rules()
    if args.list_rules:
        combined = {**file_registry, **project_registry}
        for rule_id, cls in sorted(combined.items()):
            scope = "project" if rule_id in project_registry else "file"
            print(f"{rule_id}  [{cls.severity.value}]  [{scope}]  {cls.summary}")
        return EXIT_CLEAN

    for flag, retired in (("--flows", args.flows), ("--tensors", args.tensors)):
        if retired:
            print(f"repro-lint: {flag} is retired; running as --project", file=sys.stderr)
            args.project = True
    if args.no_cache:
        print("repro-lint: --no-cache is retired; the linter keeps no cache", file=sys.stderr)

    if args.select is not None and not _split_rules(args.select):
        print("repro-lint: --select got no rule ids", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print(f"repro-lint: --jobs must be positive, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = _resolve_config(args)
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    known_ids: Set[str] = set(file_registry)
    if args.project:
        known_ids |= set(project_registry)
    unknown = [
        rule_id
        for rule_id in (config.enable or []) + list(config.disable)
        if rule_id not in known_ids
    ]
    if unknown:
        hint = "" if args.project else " (RL101 needs --project)"
        print(
            f"repro-lint: unknown rule id(s): {', '.join(sorted(set(unknown)))}"
            + hint,
            file=sys.stderr,
        )
        return EXIT_USAGE

    selected = config.selected_rule_ids(sorted(known_ids))
    file_rule_ids = [rule_id for rule_id in selected if rule_id in file_registry]
    project_rule_ids = [rule_id for rule_id in selected if rule_id in project_registry]

    paths = list(args.paths) or list(config.paths)
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"repro-lint: path(s) not found: {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE

    report = lint_project(
        paths,
        rule_ids=file_rule_ids,
        project_rule_ids=project_rule_ids,
        jobs=args.jobs,
    )
    if project_rule_ids and not report.analyzed_project:
        print(
            "repro-lint: --project found no importable 'repro' package "
            "under the given paths; RL101 was skipped",
            file=sys.stderr,
        )

    findings = report.findings
    if args.format == "json":
        print(_render_json(findings, report.files_checked, report.suppressed))
    elif args.format == "sarif":
        print(
            render_sarif(
                findings,
                _rule_metadata(selected),
                tool_version=_tool_version(),
            )
        )
    else:
        print(_render_text(findings, report.files_checked, report.suppressed))
    has_errors = any(f.severity is Severity.ERROR for f in findings)
    return EXIT_FINDINGS if has_errors else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
