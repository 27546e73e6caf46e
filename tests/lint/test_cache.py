"""Incremental cache tests: warm runs must be byte-identical to cold
runs, invalidation must be exact (content hash per file, tree hash for
the whole-program pass, ruleset signature for everything), and a broken
cache file must never be an error."""

import json

import pytest

import repro.lint.cache as cache_module
import repro.lint.project as project_module
from repro.lint.cache import (
    CACHE_SCHEMA,
    LintCache,
    file_sha,
    ruleset_signature,
    tree_hash,
)
from repro.lint.findings import Finding, Severity
from repro.lint.project import lint_project

#: A per-file defect (RL004) plus a whole-program defect (RL101:
#: ``core`` importing ``dca`` violates the layering DAG).
TREE = {
    "core/bad.py": (
        "from repro.dca import cfg\n"
        "\n"
        "def collect(items=[]):\n"
        "    return items\n"
    ),
    "core/clean.py": "X = 1\n",
    "dca/cfg.py": "LIMIT = 3\n",
}

RULE_IDS = ("RL004",)
PROJECT_RULE_IDS = ("RL101",)


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "repro"
    root.mkdir()
    (root / "__init__.py").touch()
    for relative, source in TREE.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        init = path.parent / "__init__.py"
        if not init.exists():
            init.touch()
        path.write_text(source, encoding="utf-8")
    return root


def make_cache(tmp_path, signature="sig"):
    return LintCache.load(tmp_path / ".reprolint-cache.json", signature)


def run(tree, cache=None, jobs=1):
    return lint_project(
        [str(tree)],
        rule_ids=RULE_IDS,
        project_rule_ids=PROJECT_RULE_IDS,
        jobs=jobs,
        cache=cache,
    )


class TestWarmRuns:
    def test_warm_run_is_byte_identical(self, tree, tmp_path):
        cold = run(tree, cache=make_cache(tmp_path))
        warm_cache = make_cache(tmp_path)
        warm = run(tree, cache=warm_cache)
        assert warm.findings == cold.findings
        assert warm.suppressed == cold.suppressed
        assert warm.files_checked == cold.files_checked
        assert warm_cache.misses == 0
        assert warm_cache.hits == cold.files_checked
        # Sanity: the corpus really exercises both cache layers.
        assert {f.rule_id for f in cold.findings} == {"RL004", "RL101"}

    def test_cache_matches_uncached_run(self, tree, tmp_path):
        uncached = run(tree)
        cached = run(tree, cache=make_cache(tmp_path))
        assert cached.findings == uncached.findings

    def test_warm_run_skips_whole_program_pass(self, tree, tmp_path, monkeypatch):
        run(tree, cache=make_cache(tmp_path))

        def explode(*args, **kwargs):
            raise AssertionError("whole-program pass ran on a warm cache")

        monkeypatch.setattr(project_module, "run_project_rules", explode)
        warm = run(tree, cache=make_cache(tmp_path))
        assert warm.analyzed_project
        assert {f.rule_id for f in warm.findings} == {"RL004", "RL101"}

    def test_parallel_warm_and_cold_agree(self, tree, tmp_path):
        serial = run(tree)
        parallel_cold = run(tree, cache=make_cache(tmp_path), jobs=2)
        parallel_warm = run(tree, cache=make_cache(tmp_path), jobs=2)
        assert parallel_cold.findings == serial.findings
        assert parallel_warm.findings == serial.findings


class TestInvalidation:
    def test_changed_file_relinted(self, tree, tmp_path):
        run(tree, cache=make_cache(tmp_path))
        # Fixing the mutable default removes the RL004 finding; the
        # layering violation (unchanged bytes elsewhere) must survive
        # because the tree hash changed and the project pass re-ran.
        bad = tree / "core" / "bad.py"
        bad.write_text(
            "from repro.dca import cfg\n\ndef collect(items=None):\n    return items\n",
            encoding="utf-8",
        )
        warm_cache = make_cache(tmp_path)
        warm = run(tree, cache=warm_cache)
        assert {f.rule_id for f in warm.findings} == {"RL101"}
        assert warm_cache.misses == 1  # only the changed file
        assert warm_cache.hits == warm.files_checked - 1

    def test_new_file_invalidates_project_pass_only(self, tree, tmp_path):
        run(tree, cache=make_cache(tmp_path))
        extra = tree / "core" / "extra.py"
        extra.write_text("from repro.dca import cfg\n", encoding="utf-8")
        warm = run(tree, cache=make_cache(tmp_path))
        # Two layering findings now: the old one and the new file's.
        assert sorted(f.rule_id for f in warm.findings) == [
            "RL004",
            "RL101",
            "RL101",
        ]

    def test_signature_mismatch_starts_fresh(self, tree, tmp_path):
        run(tree, cache=make_cache(tmp_path, signature="old"))
        fresh = make_cache(tmp_path, signature="new")
        result = run(tree, cache=fresh)
        assert fresh.hits == 0
        assert fresh.misses == result.files_checked

    def test_older_ruleset_version_discarded(self, tree, tmp_path, monkeypatch):
        # A cache written before a RULESET_VERSION bump must not replay.
        monkeypatch.setattr(cache_module, "RULESET_VERSION", cache_module.RULESET_VERSION - 1)
        run(tree, cache=make_cache(tmp_path, ruleset_signature("1.0", RULE_IDS)))
        monkeypatch.undo()
        current = make_cache(tmp_path, ruleset_signature("1.0", RULE_IDS))
        result = run(tree, cache=current)
        assert current.hits == 0
        assert current.misses == result.files_checked

    def test_removed_file_pruned_from_cache(self, tree, tmp_path):
        run(tree, cache=make_cache(tmp_path))
        (tree / "core" / "clean.py").unlink()
        run(tree, cache=make_cache(tmp_path))
        document = json.loads(
            (tmp_path / ".reprolint-cache.json").read_text(encoding="utf-8")
        )
        assert not any("clean.py" in path for path in document["files"])


class TestRobustness:
    def test_corrupt_cache_file_treated_as_empty(self, tree, tmp_path):
        path = tmp_path / ".reprolint-cache.json"
        path.write_text("{not json", encoding="utf-8")
        cache = LintCache.load(path, "sig")
        result = run(tree, cache=cache)
        assert {f.rule_id for f in result.findings} == {"RL004", "RL101"}
        # And the run rewrote it into a valid document.
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["schema"] == CACHE_SCHEMA

    def test_wrong_schema_treated_as_empty(self, tmp_path):
        path = tmp_path / ".reprolint-cache.json"
        path.write_text(
            json.dumps({"schema": "something-else/9", "signature": "sig"}),
            encoding="utf-8",
        )
        cache = LintCache.load(path, "sig")
        assert cache.get_file("a.py", "sha") is None

    def test_save_without_changes_writes_nothing(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.save()
        assert not (tmp_path / ".reprolint-cache.json").exists()


class TestPrimitives:
    def test_file_sha_tracks_content(self, tmp_path):
        path = tmp_path / "a.py"
        path.write_text("x = 1\n", encoding="utf-8")
        first = file_sha(str(path))
        path.write_text("x = 2\n", encoding="utf-8")
        assert file_sha(str(path)) != first

    def test_tree_hash_order_independent_but_content_sensitive(self):
        a = tree_hash({"a.py": "1", "b.py": "2"})
        assert a == tree_hash({"b.py": "2", "a.py": "1"})
        assert a != tree_hash({"a.py": "1", "b.py": "3"})
        assert a != tree_hash({"a.py": "1"})

    def test_ruleset_signature_sensitive_to_version_and_rules(self):
        base = ruleset_signature("1.0", ["RL001"], ["RL101"])
        assert base == ruleset_signature("1.0", ["RL001"], ["RL101"])
        assert base != ruleset_signature("1.1", ["RL001"], ["RL101"])
        assert base != ruleset_signature("1.0", ["RL001", "RL002"], ["RL101"])
        # Group order matters (file and project selections are
        # distinct), but order within a group does not.
        assert ruleset_signature("1.0", ["RL002", "RL001"]) == ruleset_signature(
            "1.0", ["RL001", "RL002"]
        )

    def test_findings_round_trip_through_dicts(self):
        finding = Finding(
            path="src/repro/x.py",
            line=3,
            col=7,
            rule_id="RL004",
            severity=Severity.ERROR,
            message="mutable default",
        )
        assert Finding.from_dict(finding.as_dict()) == finding
