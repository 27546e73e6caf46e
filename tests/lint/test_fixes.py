"""Round-trip tests for ``repro-lint --fix`` (RL004 / RL006 / RL304).

The contract: a fix removes the finding it targets, never touches a
site the linter would not flag (suppressions, bare excepts, one-line
defs), and is idempotent -- a second pass over fixed source changes
nothing.
"""

import textwrap

from repro.lint.engine import LintEngine, registered_rules
from repro.lint.fixes import FIXABLE_RULES, fix_paths, fix_source


#: RL006 is gated to simulation packages, so handler fixtures must live
#: on a sim-package path; RL004 applies everywhere.
SIM_PATH = "src/repro/sim/fixture.py"
#: RL304 is gated to the decision packages (core/sim/dca/parallel/bench).
DCA_PATH = "src/repro/dca/fixture.py"


def relint(source, path="fixture.py", rule_ids=FIXABLE_RULES):
    registry = registered_rules()
    engine = LintEngine(rules=[registry[rule_id]() for rule_id in rule_ids])
    return engine.lint_source(source, path)


def fix(source, path="fixture.py"):
    return fix_source(textwrap.dedent(source), path)


def fix_in_dca(source):
    return fix(source, DCA_PATH)


class TestMutableDefaultFix:
    def test_list_default_becomes_none_sentinel(self):
        fixed, applied = fix(
            """
            def collect(items=[]):
                items.append(1)
                return items
            """
        )
        assert applied == 1
        assert "def collect(items=None):" in fixed
        assert "if items is None:" in fixed
        assert "items = []" in fixed
        # The guard precedes the first use.
        assert fixed.index("if items is None:") < fixed.index("items.append(1)")

    def test_fixed_source_has_no_finding_and_is_idempotent(self):
        fixed, applied = fix(
            """
            def merge(acc={}):
                return acc
            """
        )
        assert applied == 1
        assert relint(fixed) == []
        again, reapplied = fix_source(fixed, "fixture.py")
        assert reapplied == 0
        assert again == fixed

    def test_guard_inserted_after_docstring(self):
        fixed, applied = fix(
            '''
            def collect(items=[]):
                """Gather items."""
                return items
            '''
        )
        assert applied == 1
        lines = fixed.split("\n")
        doc_index = next(i for i, l in enumerate(lines) if '"""Gather' in l)
        guard_index = next(i for i, l in enumerate(lines) if "if items is None" in l)
        assert guard_index == doc_index + 1

    def test_kwonly_and_multiple_defaults(self):
        fixed, applied = fix(
            """
            def build(head=[], *, tail={}):
                return head, tail
            """
        )
        assert applied == 2
        assert "head=None" in fixed and "tail=None" in fixed
        assert "head = []" in fixed and "tail = {}" in fixed
        assert relint(fixed) == []

    def test_one_line_def_left_alone(self):
        source = "def shove(items=[]): return items\n"
        fixed, applied = fix_source(source, "fixture.py")
        assert applied == 0
        assert fixed == source
        # The finding survives for a human to handle.
        assert [f.rule_id for f in relint(source)] == ["RL004"]

    def test_suppressed_site_not_rewritten(self):
        source = textwrap.dedent(
            """
            def collect(items=[]):  # reprolint: disable=RL004
                return items
            """
        )
        fixed, applied = fix_source(source, "fixture.py")
        assert applied == 0
        assert fixed == source

    def test_immutable_defaults_untouched(self):
        source = textwrap.dedent(
            """
            def greet(name="world", count=3):
                return name * count
            """
        )
        fixed, applied = fix_source(source, "fixture.py")
        assert applied == 0
        assert fixed == source


class TestSwallowedExceptionFix:
    def test_noop_handler_becomes_reraise(self):
        fixed, applied = fix(
            """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
            """,
            path=SIM_PATH,
        )
        assert applied == 1
        assert "raise  # reprolint: re-raise (was swallowed)" in fixed
        assert relint(fixed, path=SIM_PATH) == []
        again, reapplied = fix_source(fixed, SIM_PATH)
        assert reapplied == 0
        assert again == fixed

    def test_bare_except_left_for_a_human(self):
        source = textwrap.dedent(
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    pass
            """
        )
        fixed, applied = fix_source(source, SIM_PATH)
        assert applied == 0
        assert fixed == source
        # The bare-except finding survives for a human to handle.
        assert [f.rule_id for f in relint(source, path=SIM_PATH)] == ["RL006"]

    def test_handler_with_real_work_untouched(self):
        source = textwrap.dedent(
            """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return ""
            """
        )
        fixed, applied = fix_source(source, SIM_PATH)
        assert applied == 0
        assert fixed == source

    def test_outside_sim_packages_not_rewritten(self):
        # Package gating is honoured: the same handler outside the sim
        # packages is not a finding, so it is not a fix site either.
        source = textwrap.dedent(
            """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
            """
        )
        fixed, applied = fix_source(source, "tools/fixture.py")
        assert applied == 0
        assert fixed == source


class TestStableSortFix:
    def test_np_sort_gains_stable_kind(self):
        fixed, applied = fix_in_dca(
            """
            import numpy as np

            order = np.sort(values)
            ranks = np.argsort(weights)
            """
        )
        assert applied == 2
        assert 'np.sort(values, kind="stable")' in fixed
        assert 'np.argsort(weights, kind="stable")' in fixed

    def test_method_argsort_fixed_but_bare_sort_is_not(self):
        # ``.argsort()`` is unambiguously an array method; a bare
        # ``.sort()`` could be ``list.sort`` and is left for a human.
        fixed, applied = fix_in_dca(
            """
            import numpy as np

            ranks = scores.argsort()
            rows.sort()
            """
        )
        assert applied == 1
        assert 'scores.argsort(kind="stable")' in fixed
        assert "rows.sort()" in fixed

    def test_existing_kind_untouched_and_idempotent(self):
        source = textwrap.dedent(
            """
            import numpy as np

            order = np.sort(values, kind="mergesort")
            """
        )
        fixed, applied = fix_source(source, DCA_PATH)
        assert applied == 0
        assert fixed == source
        # Fixed output round-trips: a second pass changes nothing.
        once, _ = fix_in_dca("import numpy as np\nranks = np.argsort(w)\n")
        again, reapplied = fix_source(once, DCA_PATH)
        assert reapplied == 0
        assert again == once

    def test_suppressed_site_not_rewritten(self):
        source = textwrap.dedent(
            """
            import numpy as np

            order = np.sort(values)  # reprolint: disable=RL304
            """
        )
        fixed, applied = fix_source(source, DCA_PATH)
        assert applied == 0
        assert fixed == source

    def test_multiline_call_keeps_syntax_valid(self):
        fixed, applied = fix_in_dca(
            """
            import numpy as np

            ranks = np.argsort(
                weights,
            )
            """
        )
        assert applied == 1
        assert 'weights, kind="stable",' in fixed
        compile(fixed, DCA_PATH, "exec")

    def test_star_kwargs_left_for_a_human(self):
        # ``**kwargs`` may already carry ``kind``; injecting one could
        # turn a working call into a duplicate-keyword TypeError.
        source = textwrap.dedent(
            """
            import numpy as np

            order = np.sort(values, **options)
            """
        )
        fixed, applied = fix_source(source, DCA_PATH)
        assert applied == 0
        assert fixed == source

    def test_fixed_source_relints_clean(self):
        fixed, applied = fix_in_dca(
            """
            import numpy as np

            ranks = np.argsort(weights)
            order = scores.argsort()
            """
        )
        assert applied == 2
        assert relint(fixed, DCA_PATH) == []

    def test_unstable_explicit_kind_kept_and_still_flagged(self):
        # The fix never overrides an explicit choice; the finding stays.
        source = textwrap.dedent(
            """
            import numpy as np

            order = np.sort(values, kind="quicksort")
            """
        )
        fixed, applied = fix_source(source, DCA_PATH)
        assert applied == 0
        assert [f.rule_id for f in relint(fixed, DCA_PATH)] == ["RL304"]

    def test_outside_decision_packages_not_rewritten(self):
        source = textwrap.dedent(
            """
            import numpy as np

            ranks = np.argsort(weights)
            """
        )
        fixed, applied = fix_source(source, "src/repro/experiments/fixture.py")
        assert applied == 0
        assert fixed == source

    def test_non_numpy_sort_untouched(self):
        source = textwrap.dedent(
            """
            import statistics as np_like

            order = np_like.sort(values)
            """
        )
        fixed, applied = fix_source(source, DCA_PATH)
        assert applied == 0
        assert fixed == source


class TestFixPaths:
    def test_files_rewritten_in_place(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text(
            "def collect(items=[]):\n    return items\n", encoding="utf-8"
        )
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n", encoding="utf-8")
        files_changed, total = fix_paths([str(tmp_path)])
        assert files_changed == 1
        assert total == 1
        assert "items=None" in target.read_text(encoding="utf-8")
        assert clean.read_text(encoding="utf-8") == "X = 1\n"

    def test_second_pass_is_a_no_op(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text(
            "def collect(items=[]):\n    return items\n", encoding="utf-8"
        )
        fix_paths([str(tmp_path)])
        first = target.read_text(encoding="utf-8")
        files_changed, total = fix_paths([str(tmp_path)])
        assert (files_changed, total) == (0, 0)
        assert target.read_text(encoding="utf-8") == first
