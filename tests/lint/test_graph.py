"""Import-graph substrate: module discovery, edge extraction (absolute,
relative, lazy), package-root location, and deterministic cycle/SCC
reporting."""

import textwrap

from repro.lint.graph import (
    find_package_root,
    load_project,
    module_name,
)


def write_package(tmp_path, files):
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
    return root


class TestDiscovery:
    def test_module_names_and_packages(self, tmp_path):
        root = write_package(
            tmp_path,
            {"core/types.py": "X = 1\n", "dca/sub/deep.py": "Y = 2\n"},
        )
        graph = load_project(root)
        assert "repro" in graph.modules
        assert graph.modules["repro"].is_package
        assert graph.modules["repro.core.types"].package == "core"
        assert graph.modules["repro.dca.sub.deep"].package == "dca"
        assert not graph.modules["repro.core.types"].is_package

    def test_module_name_of_init(self, tmp_path):
        root = write_package(tmp_path, {"core/types.py": "X = 1\n"})
        assert module_name(root / "core" / "__init__.py", root) == "repro.core"
        assert module_name(root / "core" / "types.py", root) == "repro.core.types"

    def test_syntax_error_files_skipped(self, tmp_path):
        root = write_package(
            tmp_path,
            {"core/good.py": "X = 1\n", "core/broken.py": "def oops(:\n"},
        )
        graph = load_project(root)
        assert "repro.core.good" in graph.modules
        assert "repro.core.broken" not in graph.modules


class TestFindPackageRoot:
    def test_package_dir_itself(self, tmp_path):
        root = write_package(tmp_path, {"core/types.py": "X = 1\n"})
        assert find_package_root([str(root)]) == root

    def test_containing_dir(self, tmp_path):
        root = write_package(tmp_path, {"core/types.py": "X = 1\n"})
        assert find_package_root([str(tmp_path)]) == root

    def test_file_inside_package(self, tmp_path):
        root = write_package(tmp_path, {"core/types.py": "X = 1\n"})
        assert find_package_root([str(root / "core" / "types.py")]) == root

    def test_no_package_returns_none(self, tmp_path):
        (tmp_path / "loose.py").write_text("X = 1\n")
        assert find_package_root([str(tmp_path / "loose.py")]) is None


class TestEdges:
    def test_absolute_and_relative_imports(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "core/types.py": "X = 1\n",
                "core/other.py": "from repro.core import types\n",
                "core/rel.py": "from . import types\n",
                "dca/up.py": "from ..core import types\n",
                "dca/name.py": "from repro.core.types import X\n",
            },
        )
        graph = load_project(root)
        targets = {
            edge.source: edge.target
            for edge in graph.edges
            if edge.target == "repro.core.types"
        }
        assert targets == {
            "repro.core.other": "repro.core.types",
            "repro.core.rel": "repro.core.types",
            "repro.dca.up": "repro.core.types",
            "repro.dca.name": "repro.core.types",
        }

    def test_function_scoped_import_marked_lazy(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "core/a.py": "from repro.core import b\n",
                "core/b.py": (
                    "def back():\n"
                    "    from repro.core import a\n"
                    "    return a\n"
                ),
            },
        )
        graph = load_project(root)
        by_source = {edge.source: edge for edge in graph.edges}
        assert by_source["repro.core.a"].top_level
        assert not by_source["repro.core.b"].top_level

    def test_external_imports_ignored(self, tmp_path):
        root = write_package(
            tmp_path,
            {"core/a.py": "import os\nimport random\nfrom math import sqrt\n"},
        )
        graph = load_project(root)
        assert graph.edges == []


class TestCycles:
    def test_two_module_cycle_reported_sorted(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "core/a.py": "from repro.core import b\n",
                "core/b.py": "from repro.core import a\n",
            },
        )
        graph = load_project(root)
        assert graph.cycles() == [["repro.core.a", "repro.core.b"]]

    def test_three_module_cycle(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "core/a.py": "from repro.core import b\n",
                "core/b.py": "from repro.core import c\n",
                "core/c.py": "from repro.core import a\n",
            },
        )
        graph = load_project(root)
        assert graph.cycles() == [
            ["repro.core.a", "repro.core.b", "repro.core.c"]
        ]

    def test_lazy_edge_not_a_cycle(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "core/a.py": "from repro.core import b\n",
                "core/b.py": (
                    "def back():\n"
                    "    from repro.core import a\n"
                    "    return a\n"
                ),
            },
        )
        assert load_project(root).cycles() == []

    def test_dag_has_no_cycles(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "core/a.py": "X = 1\n",
                "core/b.py": "from repro.core import a\n",
                "core/c.py": "from repro.core import a\nfrom repro.core import b\n",
            },
        )
        assert load_project(root).cycles() == []
