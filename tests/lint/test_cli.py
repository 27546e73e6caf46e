"""CLI behaviour: exit codes, text/JSON/SARIF output, rule selection,
project mode (``--project``/``--jobs``), the retired flags
(``--flows``, ``--tensors``, ``--no-cache``; ``--fix`` is gone),
finding order across both modes, and the ``[tool.reprolint]`` config
table (including the no-tomllib fallback)."""

import json
import textwrap

import pytest

from repro.lint.cli import JSON_SCHEMA, JSON_SCHEMA_VERSION, main
from repro.lint.config import LintConfig, _fallback_parse, load_config


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Run every CLI test from its own tmp dir, so config auto-discovery
    finds no repo pyproject.toml."""
    monkeypatch.chdir(tmp_path)

CLEAN = 'GREETING = "hello"\n'
VIOLATING = textwrap.dedent(
    """
    import random

    def jitter():
        return random.random()
    """
)


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_violation_exits_one_with_file_line_rule(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", VIOLATING)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:5: RL001" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main(["--select", "RL999", str(path)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_internal_error_exits_three_with_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        # A crashing linter must be distinguishable from findings (1)
        # and usage errors (2): CI treats >1 as "the linter is broken".
        import repro.lint.cli as cli

        def explode(args):
            raise RuntimeError("injected linter bug")

        monkeypatch.setattr(cli, "_run", explode)
        path = write(tmp_path, "clean.py", CLEAN)
        assert main([str(path)]) == 3
        err = capsys.readouterr().err
        assert "injected linter bug" in err
        assert "linter bug, not a finding" in err

    @pytest.mark.parametrize("flag", ["--baseline=x.json", "--update-baseline"])
    def test_retired_baseline_flags_are_usage_errors(self, tmp_path, flag, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        with pytest.raises(SystemExit) as exc:
            main([flag, str(path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_retired_fix_flag_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", "def f(items=[]):\n    return items\n")
        with pytest.raises(SystemExit) as exc:
            main(["--fix", str(path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fix" in capsys.readouterr().err
        assert "items=[]" in path.read_text(encoding="utf-8")


class TestOutputFormats:
    def test_json_schema(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", VIOLATING)
        assert main(["--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == JSON_SCHEMA
        assert payload["version"] == JSON_SCHEMA_VERSION == 3
        assert set(payload) == {
            "schema",
            "version",
            "files_checked",
            "suppressed",
            "findings",
            "summary",
        }
        assert payload["files_checked"] == 1
        assert payload["suppressed"] == 0
        assert payload["summary"] == {"RL001": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule", "severity", "message"}
        assert finding["rule"] == "RL001"
        assert finding["line"] == 5
        assert finding["severity"] == "error"

    def test_json_on_clean_tree(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main(["--format", "json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [f"RL00{i}" for i in range(1, 9)] + ["RL101", "RL304"]
        # The project rule is listed too, tagged with its scope.
        assert "RL101  [error]  [project]" in out
        assert "[file]" in out

    def test_sarif_output(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", VIOLATING)
        assert main(["--output", "sarif", str(path)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "reprolint"
        (result,) = run["results"]
        assert result["ruleId"] == "RL001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5


class TestRuleSelection:
    def test_select_limits_rules(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", VIOLATING + "\n\ndef f(items=[]):\n    return items\n")
        assert main(["--select", "RL004", "--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"RL004": 1}

    def test_disable_skips_rule(self, tmp_path):
        path = write(tmp_path, "bad.py", VIOLATING)
        assert main(["--disable", "RL001", str(path)]) == 0


class TestConfigTable:
    PYPROJECT = textwrap.dedent(
        """
        [project]
        name = "demo"

        [tool.reprolint]
        paths = ["{target}"]
        disable = ["RL004"]

        [tool.other]
        x = 1
        """
    )

    def test_config_paths_and_disable(self, tmp_path, capsys):
        target = write(tmp_path, "bad.py", VIOLATING + "\n\ndef f(items=[]):\n    return items\n")
        pyproject = write(
            tmp_path,
            "pyproject.toml",
            self.PYPROJECT.format(target=str(target)),
        )
        # No positional paths: targets come from the config table.
        assert main(["--config", str(pyproject), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"RL001": 1}  # RL004 disabled by config

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.toml")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_load_config_defaults_without_table(self, tmp_path):
        pyproject = write(tmp_path, "pyproject.toml", "[project]\nname = 'demo'\n")
        config = load_config(pyproject)
        assert config.paths == ["src/repro"]
        assert config.enable is None
        assert config.disable == []

    def test_fallback_parser_matches_expected_table(self, tmp_path):
        # Exercised directly so 3.11+ runs cover the 3.9/3.10 path.
        text = self.PYPROJECT.format(target="src/repro")
        table = _fallback_parse(text)
        assert table == {"paths": ["src/repro"], "disable": ["RL004"]}

    def test_fallback_parser_multiline_array(self):
        text = textwrap.dedent(
            """
            [tool.reprolint]
            enable = [
                "RL001",
                "RL002",
            ]
            """
        )
        assert _fallback_parse(text) == {"enable": ["RL001", "RL002"]}

    def test_selected_rule_ids_resolution(self):
        config = LintConfig(enable=["RL001", "RL003"], disable=["RL003"])
        assert config.selected_rule_ids(["RL001", "RL002", "RL003"]) == ["RL001"]


def write_mini_package(tmp_path, violating=True):
    """A tiny ``repro`` package; ``violating`` adds a layering breach."""
    root = tmp_path / "repro"
    (root / "core").mkdir(parents=True)
    (root / "dca").mkdir()
    (root / "__init__.py").touch()
    (root / "core" / "__init__.py").touch()
    (root / "dca" / "__init__.py").touch()
    (root / "dca" / "config.py").write_text("LIMIT = 3\n", encoding="utf-8")
    body = "from repro.dca import config\n" if violating else "X = 1\n"
    (root / "core" / "user.py").write_text(body, encoding="utf-8")
    return root


class TestProjectMode:
    def test_layering_violation_exits_one(self, tmp_path, capsys):
        root = write_mini_package(tmp_path)
        assert main(["--project", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RL101" in out
        assert "layering violation" in out

    def test_clean_package_exits_zero(self, tmp_path, capsys):
        root = write_mini_package(tmp_path, violating=False)
        assert main(["--project", str(root)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_project_rules_need_project_flag(self, tmp_path, capsys):
        # Without --project, RL101 is unknown (and the hint says so).
        root = write_mini_package(tmp_path)
        assert main(["--select", "RL101", str(root)]) == 2
        assert "--project" in capsys.readouterr().err

    def test_retired_call_graph_rule_ids_are_unknown(self, tmp_path, capsys):
        root = write_mini_package(tmp_path)
        assert main(["--project", "--select", "RL104", str(root)]) == 2
        assert "unknown rule id(s): RL104" in capsys.readouterr().err

    def test_without_project_flag_layering_unchecked(self, tmp_path):
        root = write_mini_package(tmp_path)
        assert main([str(root)]) == 0

    def test_jobs_output_byte_identical(self, tmp_path, capsys):
        root = write_mini_package(tmp_path)
        assert main(["--project", "--jobs", "1", "--output", "json", str(root)]) == 1
        serial = capsys.readouterr().out
        assert main(["--project", "--jobs", "2", "--output", "json", str(root)]) == 1
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_nonpositive_jobs_exits_two(self, tmp_path, capsys):
        root = write_mini_package(tmp_path)
        assert main(["--project", "--jobs", "0", str(root)]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_missing_package_warns_but_runs_file_rules(self, tmp_path, capsys):
        path = write(tmp_path, "loose.py", CLEAN)
        assert main(["--project", str(path)]) == 0
        assert "no importable 'repro' package" in capsys.readouterr().err


class TestFlowMode:
    """``--flows`` is a retired alias of ``--project``: the RL2xx tier is gone."""

    def test_flows_implies_project(self, tmp_path, capsys):
        # RL101 is selectable under --flows without --project.
        root = write_mini_package(tmp_path)
        assert main(["--flows", "--select", "RL101", str(root)]) == 1
        captured = capsys.readouterr()
        assert "RL101" in captured.out
        assert "--flows is retired" in captured.err

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = write_mini_package(tmp_path, violating=False)
        assert main(["--flows", str(root)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_retired_rl2xx_ids_are_unknown(self, tmp_path, capsys):
        root = write_mini_package(tmp_path)
        assert main(["--flows", "--select", "RL203", str(root)]) == 2
        assert "unknown rule id(s): RL203" in capsys.readouterr().err

    def test_list_rules_has_no_flow_scope(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "[flow]" not in out
        assert "RL2" not in out


def write_sort_package(tmp_path):
    """A mini ``repro`` package with one unstable ``np.argsort`` steering
    a decision path (RL304)."""
    root = tmp_path / "repro"
    (root / "dca").mkdir(parents=True)
    (root / "__init__.py").touch()
    (root / "dca" / "__init__.py").touch()
    (root / "dca" / "rank.py").write_text(
        textwrap.dedent(
            """
            import numpy as np

            def pick(weights):
                order = np.argsort(weights)
                return order[0]
            """
        ),
        encoding="utf-8",
    )
    return root


class TestStableSortRule:
    def test_per_file_run_reports_rl304_and_exits_one(self, tmp_path, capsys):
        root = write_sort_package(tmp_path)
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "RL304" in out
        assert 'kind="stable"' in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = write_mini_package(tmp_path, violating=False)
        assert main([str(root)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_list_rules_tags_rl304_as_file_rule(self, tmp_path, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL304  [error]  [file]" in out
        for rule_id in ("RL301", "RL302", "RL303", "RL305"):
            assert rule_id not in out

    def test_retired_rl3xx_ids_are_unknown(self, tmp_path, capsys):
        root = write_sort_package(tmp_path)
        assert main(["--project", "--select", "RL301", str(root)]) == 2
        assert "unknown rule id(s): RL301" in capsys.readouterr().err

    def test_retired_tensors_flag_runs_as_project(self, tmp_path, capsys):
        root = write_mini_package(tmp_path)
        assert main(["--tensors", "--select", "RL101", str(root)]) == 1
        captured = capsys.readouterr()
        assert "RL101" in captured.out
        assert "--tensors is retired" in captured.err

    def test_sarif_carries_rl304(self, tmp_path, capsys):
        root = write_sort_package(tmp_path)
        assert main(["--output", "sarif", str(root)]) == 1
        log = json.loads(capsys.readouterr().out)
        (run,) = log["runs"]
        assert any(r["ruleId"] == "RL304" for r in run["results"])
        assert "RL304" in {rule["id"] for rule in run["tool"]["driver"]["rules"]}


class TestRetiredFlags:
    @pytest.mark.parametrize("flag", ["--flows", "--tensors", "--no-cache"])
    def test_retired_flag_changes_nothing_but_a_note(self, tmp_path, flag, capsys):
        root = write_mini_package(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["--project", "--output", "json", str(root)]) == 1
        plain = capsys.readouterr().out
        assert main(["--project", flag, "--output", "json", str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out == plain
        assert f"{flag} is retired" in captured.err
        # The linter writes nothing next to the tree it lints.
        assert sorted(tmp_path.rglob("*")) == before

    def test_no_cache_keeps_per_file_mode(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", VIOLATING)
        assert main(["--no-cache", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"{path}:5: RL001" in captured.out
        assert "RL101" not in captured.out
        assert "--no-cache is retired; the linter keeps no cache" in captured.err

    def test_help_hides_retired_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--flows", "--tensors", "--no-cache"):
            assert flag not in out


class TestFindingOrder:
    """Both modes run one path, so they order findings alike: globally
    sorted, whatever order the paths were given in."""

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_modes_sort_findings_identically(self, tmp_path, output, capsys):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            write(tmp_path / name, "m.py", VIOLATING)
        assert main(["--output", output, "b", "a"]) == 1
        per_file = capsys.readouterr().out
        assert main(["--project", "--output", output, "b", "a"]) == 1
        project = capsys.readouterr().out
        assert per_file == project
        if output == "json":
            findings = json.loads(per_file)["findings"]
            paths = [finding["path"] for finding in findings]
        else:
            paths = [line.split(":")[0] for line in per_file.splitlines()[:-1]]
        assert paths == ["a/m.py", "b/m.py"]
