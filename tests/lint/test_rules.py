"""One positive and one negative fixture per rule, plus suppression
handling.  Fixtures use synthetic ``repro/<pkg>/...`` paths to opt into
package-scoped rules."""

import textwrap

import pytest

from repro.lint import LintEngine, registered_rules


def lint(source, path="repro/sim/fixture.py", rules=None):
    registry = registered_rules()
    if rules is not None:
        engine = LintEngine(rules=[registry[rule_id]() for rule_id in rules])
    else:
        engine = LintEngine()
    return engine.lint_source(textwrap.dedent(source), path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestRL001GlobalRandom:
    def test_global_draw_flagged(self):
        findings = lint(
            """
            import random

            def jitter():
                return random.random() + random.randint(0, 3)
            """
        )
        assert rule_ids(findings) == ["RL001", "RL001"]
        assert findings[0].line == 5

    def test_from_import_of_draw_flagged(self):
        findings = lint("from random import choice\n")
        assert rule_ids(findings) == ["RL001"]

    def test_aliased_module_flagged(self):
        findings = lint("import random as rnd\n\nX = rnd.seed(3)\n")
        assert rule_ids(findings) == ["RL001"]

    def test_system_random_flagged(self):
        findings = lint("import random\n\nSEED = random.SystemRandom().getrandbits(64)\n")
        assert rule_ids(findings) == ["RL001"]

    def test_registry_streams_and_annotations_legal(self):
        findings = lint(
            """
            import random

            def draw(rng: random.Random) -> float:
                return rng.random()

            fresh = random.Random(42)
            """
        )
        assert findings == []


class TestRL002WallClock:
    def test_time_time_flagged_in_sim_package(self):
        source = """
            import time

            def stamp():
                return time.time()
            """
        findings = lint(source, path="repro/sim/clock.py")
        assert rule_ids(findings) == ["RL002"]

    def test_datetime_now_flagged(self):
        findings = lint(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            path="repro/dca/clock.py",
        )
        assert rule_ids(findings) == ["RL002"]

    def test_experiments_package_out_of_scope(self):
        source = """
            import time

            def stamp():
                return time.time()
            """
        assert lint(source, path="repro/experiments/timing.py") == []

    def test_simulated_time_legal(self):
        findings = lint(
            """
            def stamp(sim):
                return sim.now
            """,
            path="repro/sim/clock.py",
        )
        assert findings == []


class TestRL003FloatEquality:
    def test_probability_equality_flagged(self):
        findings = lint(
            """
            def same(prob_a, prob_b):
                return prob_a == prob_b
            """
        )
        assert rule_ids(findings) == ["RL003"]

    def test_confidence_inequality_flagged(self):
        findings = lint("ok = confidence != target_confidence\n")
        assert rule_ids(findings) == ["RL003"]

    def test_isclose_legal(self):
        findings = lint(
            """
            import math

            def same(prob_a, prob_b):
                return math.isclose(prob_a, prob_b)
            """
        )
        assert findings == []

    def test_nan_check_idiom_exempt(self):
        assert lint("bad = reliability == reliability\n") == []

    def test_prob_prefix_requires_word_match(self):
        # "problem" must not match "prob": regression for deployment.py.
        assert lint("ok = problem_answer == problem_truth\n") == []


class TestRL004MutableDefaults:
    def test_list_default_flagged(self):
        findings = lint(
            """
            def collect(items=[]):
                return items
            """
        )
        assert rule_ids(findings) == ["RL004"]

    def test_dict_and_constructor_defaults_flagged(self):
        findings = lint(
            """
            def configure(options={}, seen=set()):
                return options, seen
            """
        )
        assert rule_ids(findings) == ["RL004", "RL004"]

    def test_none_and_tuple_defaults_legal(self):
        findings = lint(
            """
            def collect(items=None, shape=(2, 3)):
                return items, shape
            """
        )
        assert findings == []


class TestRL005StreamNames:
    def test_fully_dynamic_fstring_flagged(self):
        findings = lint(
            """
            def wire(sim, site_id):
                return sim.rng.stream(f"{site_id}")
            """
        )
        assert rule_ids(findings) == ["RL005"]

    def test_literal_prefixed_fstring_legal(self):
        # Families of per-index streams stay auditable by their prefix;
        # the replication engine spawns `replicate:{i}` keys this way.
        findings = lint(
            """
            def wire(sim, site_id, index):
                sim.rng.stream(f"site-{site_id}")
                return sim.rng.spawn(f"replicate:{index}")
            """
        )
        assert findings == []

    def test_empty_literal_prefix_flagged(self):
        findings = lint(
            """
            def wire(sim, site_id):
                return sim.rng.stream(f"{site_id}-site")
            """
        )
        assert rule_ids(findings) == ["RL005"]

    def test_variable_spawn_name_flagged(self):
        findings = lint(
            """
            def child(registry, name):
                return registry.spawn(name)
            """
        )
        assert rule_ids(findings) == ["RL005"]

    def test_literal_names_legal(self):
        findings = lint(
            """
            def wire(sim):
                return sim.rng.stream("durations"), sim.rng.spawn(name="rep-3")
            """
        )
        assert findings == []


class TestRL006SwallowedExceptions:
    def test_bare_except_flagged(self):
        findings = lint(
            """
            def pump(server):
                try:
                    server.pump()
                except:
                    pass
            """,
            path="repro/dca/hotpath.py",
        )
        assert rule_ids(findings) == ["RL006"]

    def test_blanket_pass_flagged(self):
        findings = lint(
            """
            def pump(server):
                try:
                    server.pump()
                except Exception:
                    pass
            """,
            path="repro/sim/hotpath.py",
        )
        assert rule_ids(findings) == ["RL006"]

    def test_typed_or_handled_excepts_legal(self):
        findings = lint(
            """
            def pump(server, log):
                try:
                    server.pump()
                except ValueError:
                    pass
                except Exception:
                    log.append("boom")
                    raise
            """,
            path="repro/sim/hotpath.py",
        )
        assert findings == []


class TestRL007CachedMethods:
    def test_lru_cache_on_method_flagged(self):
        findings = lint(
            """
            from functools import lru_cache

            class Kernel:
                @lru_cache(maxsize=None)
                def evaluate(self, margin):
                    return margin * 2
            """
        )
        assert rule_ids(findings) == ["RL007"]
        assert "Kernel.evaluate" in findings[0].message

    def test_bare_cache_decorator_flagged(self):
        findings = lint(
            """
            from functools import cache

            class Kernel:
                @cache
                def evaluate(self, margin):
                    return margin * 2
            """
        )
        assert rule_ids(findings) == ["RL007"]

    def test_functools_attribute_form_flagged(self):
        findings = lint(
            """
            import functools

            class Kernel:
                @functools.lru_cache
                def evaluate(self, margin):
                    return margin * 2
            """
        )
        assert rule_ids(findings) == ["RL007"]
        assert "functools.lru_cache" in findings[0].message

    def test_static_method_exempt(self):
        findings = lint(
            """
            import functools

            class Kernel:
                @staticmethod
                @functools.lru_cache(maxsize=32)
                def evaluate(margin):
                    return margin * 2
            """
        )
        assert findings == []

    def test_module_level_function_legal(self):
        findings = lint(
            """
            from functools import lru_cache

            @lru_cache(maxsize=None)
            def evaluate(r, margin):
                return margin * r
            """
        )
        assert findings == []

    def test_nested_function_inside_method_legal(self):
        findings = lint(
            """
            from functools import lru_cache

            class Solver:
                def solve(self, k):
                    @lru_cache(maxsize=None)
                    def recurse(a, b):
                        return a + b

                    return recurse(k, k)
            """
        )
        assert findings == []

    def test_cached_property_legal(self):
        findings = lint(
            """
            from functools import cached_property

            class Kernel:
                @cached_property
                def table(self):
                    return [1, 2, 3]
            """
        )
        assert findings == []


class TestRL008TelemetryDiscipline:
    def test_wall_clock_in_obs_flagged(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            path="repro/obs/trace.py",
        )
        assert rule_ids(findings) == ["RL008"]
        assert "host" in findings[0].message

    def test_host_module_exempt(self):
        source = """
            import time

            def stamp():
                return time.time()
            """
        assert lint(source, path="repro/obs/host.py") == []
        assert lint(source, path="repro/obs/host_meta.py") == []

    def test_datetime_now_in_obs_flagged(self):
        findings = lint(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            path="repro/obs/capture.py",
        )
        assert rule_ids(findings) == ["RL008"]

    def test_direct_registry_mutation_in_sim_package_flagged(self):
        findings = lint(
            """
            def record(recorder):
                recorder.metrics.counter("dca.submit").inc()
                recorder.registry.gauge("heap").set(3)
            """,
            path="repro/dca/server.py",
        )
        assert rule_ids(findings) == ["RL008", "RL008"]
        assert "Recorder API" in findings[0].message

    def test_recorder_api_calls_legal_in_sim_package(self):
        source = """
            def record(rec, now):
                rec.count("dca.submit")
                rec.gauge("sim.heap_size", 4)
                rec.observe("dca.wave_size", 3)
            """
        assert lint(source, path="repro/dca/server.py") == []

    def test_obs_package_may_touch_its_own_registry(self):
        source = """
            def record(self, name, value):
                self._registry.counter(name).inc(value)
            """
        assert lint(source, path="repro/obs/recorder.py") == []

    def test_experiments_out_of_scope(self):
        source = """
            def record(recorder):
                recorder.metrics.counter("x").inc()
            """
        assert lint(source, path="repro/experiments/figure5a.py") == []


class TestRL304StableSorts:
    def test_argsort_without_stable_kind_flagged(self):
        findings = lint(
            """
            import numpy as np

            def rank(weights):
                return np.argsort(weights)
            """,
            path="repro/dca/ranking.py",
        )
        assert rule_ids(findings) == ["RL304"]
        assert findings[0].line == 5

    def test_argsort_message_suggests_stable_kind(self):
        findings = lint(
            """
            import numpy as np

            def rank(weights):
                return np.argsort(weights)
            """,
            path="repro/dca/ranking.py",
        )
        assert 'kind="stable"' in findings[0].message

    def test_np_sort_method_argsort_and_unstable_kind_flagged(self):
        findings = lint(
            """
            import numpy as xp

            order = xp.sort(values)
            ranks = scores.argsort()
            picks = xp.argsort(weights, kind="quicksort")
            """,
            rules=["RL304"],
        )
        assert [f.line for f in findings] == [4, 5, 6]
        assert "xp.sort" in findings[0].message
        assert ".argsort()" in findings[1].message

    def test_stable_kinds_legal(self):
        findings = lint(
            """
            import numpy as np

            def rank(weights):
                order = np.argsort(weights, kind="stable")
                return np.sort(weights[order], kind="mergesort")
            """,
            rules=["RL304"],
        )
        assert findings == []

    def test_unprovable_sorts_legal(self):
        # list.sort, lexsort (always stable), and a kind= the rule cannot
        # read are no evidence of an unstable order.
        findings = lint(
            """
            import numpy as np

            rows.sort()
            order = np.lexsort(keys)
            ranks = np.argsort(weights, kind=kind)
            picks = np.sort(values, **options)
            """,
            rules=["RL304"],
        )
        assert findings == []

    def test_outside_decision_packages_out_of_scope(self):
        source = """
            import numpy as np

            ranks = np.argsort(weights)
            """
        assert lint(source, path="repro/experiments/plot.py", rules=["RL304"]) == []
        assert rule_ids(lint(source, path="repro/bench/x.py", rules=["RL304"])) == ["RL304"]

    def test_inline_suppression_respected(self):
        findings = lint(
            """
            import numpy as np

            def rank(weights):
                return np.argsort(weights)  # reprolint: disable=RL304
            """,
            rules=["RL304"],
        )
        assert findings == []


class TestSuppression:
    def test_inline_disable_silences_one_line(self):
        engine = LintEngine()
        findings = engine.lint_source(
            textwrap.dedent(
                """
                import random

                a = random.random()  # reprolint: disable=RL001
                b = random.random()
                """
            ),
            "repro/sim/fixture.py",
        )
        assert [f.line for f in findings] == [5]
        assert engine.suppressed_count == 1

    def test_inline_disable_is_per_rule(self):
        findings = lint(
            """
            import random

            a = random.random()  # reprolint: disable=RL005
            """
        )
        assert rule_ids(findings) == ["RL001"]

    def test_file_level_disable(self):
        findings = lint(
            """
            # reprolint: disable-file=RL001
            import random

            a = random.random()
            b = random.random()
            """
        )
        assert findings == []

    def test_multiple_rules_in_one_comment(self):
        findings = lint(
            """
            import random

            def f(items=[], p=random.random()):  # reprolint: disable=RL001, RL004
                return items, p
            """
        )
        assert findings == []

    def test_disable_next_line_silences_following_line_only(self):
        engine = LintEngine()
        findings = engine.lint_source(
            textwrap.dedent(
                """
                import random

                # reprolint: disable-next-line=RL001
                a = random.random()
                b = random.random()
                """
            ),
            "repro/sim/fixture.py",
        )
        assert [f.line for f in findings] == [6]
        assert engine.suppressed_count == 1

    def test_disable_next_line_takes_multiple_rules(self):
        findings = lint(
            """
            import random

            # reprolint: disable-next-line=RL001, RL004
            def f(items=[], p=random.random()):
                return items, p
            """
        )
        assert findings == []

    def test_disable_next_line_does_not_silence_its_own_line(self):
        findings = lint(
            """
            import random

            a = random.random()  # reprolint: disable-next-line=RL001
            """
        )
        assert rule_ids(findings) == ["RL001"]


class TestEngineBasics:
    def test_syntax_error_becomes_rl000_finding(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == ["RL000"]
        assert "parse" in findings[0].message

    def test_findings_sorted_and_formatted(self):
        findings = lint(
            """
            import random

            b = random.random()

            def f(items=[]):
                return items
            """
        )
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        first = findings[0]
        assert first.format() == (
            f"{first.path}:{first.line}: {first.rule_id} {first.message}"
        )

    def test_registry_has_all_rules(self):
        assert sorted(registered_rules()) == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
            "RL304",
        ]

    def test_rule_subset_selection(self):
        source = """
            import random

            def f(items=[]):
                return items + [random.random()]
            """
        assert rule_ids(lint(source, rules=["RL004"])) == ["RL004"]


@pytest.mark.parametrize(
    "rule_id",
    ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008", "RL304"],
)
def test_every_rule_has_docs_metadata(rule_id):
    cls = registered_rules()[rule_id]
    assert cls.summary
    assert cls.__doc__ and rule_id in cls.__doc__
