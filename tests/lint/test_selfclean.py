"""The shipped tree must satisfy its own invariants: linting ``src/repro``
produces zero findings (suppressions with stated justifications aside),
per-file and whole-program alike -- the self-linting pipeline CI runs."""

from pathlib import Path

import repro
from repro.lint import lint_project, registered_project_rules, registered_rules

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_files(paths):
    """The per-file CLI run: every file rule, no whole-program rules."""
    return lint_project(
        [str(path) for path in paths],
        rule_ids=sorted(registered_rules()),
        project_rule_ids=[],
        jobs=1,
    )


def test_src_repro_lints_clean():
    # RL304 (unstable sorts) is a per-file rule, so this run covers it.
    assert "RL304" in registered_rules()
    report = lint_files([SRC_ROOT])
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    # Guard against accidental mass-suppression: the three documented
    # disables (SystemRandom seeding, per-site and per-client streams)
    # should be roughly all there is.
    assert report.suppressed <= 6
    assert report.files_checked > 50


def test_tests_and_benchmarks_lint_clean():
    # Same bar for the test and benchmark trees; their exact-equality
    # asserts carry file-level RL003 disables with stated justification.
    report = lint_files([REPO_ROOT / "tests", REPO_ROOT / "benchmarks"])
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    assert report.files_checked > 30


def test_project_rules_lint_clean():
    # The whole-program pass (RL101) over the real package: the layering
    # DAG holds and the import graph is acyclic.
    report = lint_project(
        [str(SRC_ROOT), str(REPO_ROOT / "tests"), str(REPO_ROOT / "benchmarks")],
        rule_ids=[],
        project_rule_ids=sorted(registered_project_rules()),
        jobs=1,
    )
    assert report.analyzed_project
    assert report.findings == [], "\n".join(f.format() for f in report.findings)


def test_full_project_mode_matches_serial_composition():
    # --project = per-file rules + project rules; the combined run over
    # src/repro must stay clean and count every module.
    report = lint_project(
        [str(SRC_ROOT)],
        rule_ids=sorted(registered_rules()),
        project_rule_ids=sorted(registered_project_rules()),
        jobs=1,
    )
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    assert report.files_checked > 50
