"""Positive and negative fixtures for the whole-program layering rule
(RL101).  Fixtures are synthetic ``repro`` packages written to a temp
directory and run through the real import-graph pipeline."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint.graph import load_project
from repro.lint.project_rules import (
    ALLOWED_IMPORTS,
    ProjectContext,
    registered_project_rules,
)

def build_project(tmp_path, files):
    """Write ``{relative path: source}`` as a ``repro`` package and build
    its project context (the import graph)."""
    root = tmp_path / "repro"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").touch()
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.parents:
            if parent == root:
                break
            init = parent / "__init__.py"
            if not init.exists():
                init.touch()
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return ProjectContext(load_project(root))


def run_rule(tmp_path, rule_id, files):
    project = build_project(tmp_path, files)
    rule = registered_project_rules()[rule_id]()
    return sorted(rule.check(project))


class TestRL101Layering:
    def test_lower_layer_importing_higher_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            "RL101",
            {
                "core/bad.py": "from repro.dca import config\n",
                "dca/config.py": "X = 1\n",
            },
        )
        assert len(findings) == 1
        assert "layering violation" in findings[0].message
        assert "'core' may not import 'dca'" in findings[0].message
        assert findings[0].path.endswith("core/bad.py")

    def test_allowed_direction_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            "RL101",
            {
                "dca/sim.py": "from repro.core.types import Decision\n",
                "core/types.py": "Decision = object\n",
            },
        )
        assert findings == []

    def test_unknown_package_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            "RL101",
            {
                "mystery/mod.py": "from repro.core.types import Decision\n",
                "core/types.py": "Decision = object\n",
            },
        )
        assert len(findings) == 1
        assert "not in the layering map" in findings[0].message

    def test_import_cycle_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            "RL101",
            {
                "core/a.py": "from repro.core import b\n",
                "core/b.py": "from repro.core import a\n",
            },
        )
        assert len(findings) == 1
        assert "import cycle" in findings[0].message
        assert "repro.core.a -> repro.core.b" in findings[0].message

    def test_lazy_import_breaks_cycle(self, tmp_path):
        # A function-scoped import is the sanctioned cycle-breaker.
        findings = run_rule(
            tmp_path,
            "RL101",
            {
                "core/a.py": "from repro.core import b\n",
                "core/b.py": (
                    "def back():\n"
                    "    from repro.core import a\n"
                    "    return a\n"
                ),
            },
        )
        assert findings == []

    def test_layer_map_is_a_dag(self):
        # The map itself must not smuggle a cycle in.
        state = {}

        def visit(pkg):
            if state.get(pkg) == "done":
                return
            assert state.get(pkg) != "visiting", f"cycle through {pkg}"
            state[pkg] = "visiting"
            for dep in ALLOWED_IMPORTS.get(pkg, ()):
                visit(dep)
            state[pkg] = "done"

        for pkg in ALLOWED_IMPORTS:
            visit(pkg)


def test_every_project_rule_has_registry_entry():
    registry = registered_project_rules()
    assert sorted(registry) == ["RL101"]
    for rule_id, cls in registry.items():
        assert cls.rule_id == rule_id
        assert cls.summary


@pytest.mark.parametrize("package", sorted(ALLOWED_IMPORTS))
def test_layer_map_targets_exist(package):
    for dep in ALLOWED_IMPORTS[package]:
        assert dep in ALLOWED_IMPORTS, f"{package} allows unknown layer {dep}"


def test_importing_the_linter_loads_no_simulation_code():
    # A fresh interpreter: this test process has long since loaded them.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part
    ))
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, repro.lint, repro.lint.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = completed.stdout.split()
    simulation = ("numpy",) + tuple(
        f"repro.{pkg}" for pkg in ("dca", "sim", "grid", "mapreduce", "volunteer", "obs")
    )
    assert "repro.lint.cli" in loaded
    assert [name for name in loaded if name.startswith(simulation)] == []
