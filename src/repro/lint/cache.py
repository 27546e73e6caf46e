"""Incremental lint cache (``.reprolint-cache.json``).

Project-mode runs (``--project``) memoize two things:

* **per-file results** -- keyed by the file's sha256 content hash, so a
  warm run re-lints only files whose bytes changed;
* **the whole-program pass** -- import graph, call graph and the RL1xx
  rules are one indivisible analysis, so its result
  is keyed by a *tree hash* over every (path, sha256) pair in the run:
  any changed, added, or removed file invalidates it as a unit.

Both are guarded by a **ruleset signature** combining the tool version,
:data:`RULESET_VERSION`, and the exact rule-id selection; bumping
``RULESET_VERSION`` on any behavioural rule change drops every stale
entry at once.  Cache hits replay stored findings byte-identically (the
stored form is :meth:`Finding.as_dict`, reversed by ``from_dict``), so
cached and uncached runs render the same output -- the cache is a pure
speedup, never a source of drift.  ``--no-cache`` opts out entirely.

The cache file is a plain JSON document; a corrupt, unreadable, or
mismatched-schema file is treated as empty, never an error.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

#: The ``schema`` field of the cache document.
CACHE_SCHEMA = "repro-lint-cache/1"
#: Conventional cache file name, next to pyproject.toml.
DEFAULT_CACHE_NAME = ".reprolint-cache.json"
#: Bump whenever any rule's behaviour changes: invalidates every entry.
#: 2: tensor tier (RL301-RL305) joined the signature.
#: 3: tensor tier retired; RL304 became a per-file rule.
#: 4: flow tier (RL201-RL205) retired.
RULESET_VERSION = 4


def file_sha(path: str) -> str:
    """sha256 of the file's bytes (the per-file cache key)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ruleset_signature(
    tool_version: str, *rule_id_groups: Sequence[str]
) -> str:
    """Digest of everything that could change findings besides sources."""
    digest = hashlib.sha256()
    digest.update(f"{tool_version}|{RULESET_VERSION}".encode())
    for group in rule_id_groups:
        digest.update(("|" + ",".join(sorted(group))).encode())
    return digest.hexdigest()


def tree_hash(shas: Dict[str, str]) -> str:
    """Digest of the whole file set (the whole-program cache key)."""
    digest = hashlib.sha256()
    for path in sorted(shas):
        digest.update(f"{path}:{shas[path]}\n".encode())
    return digest.hexdigest()


class LintCache:
    """One loaded cache document, bound to a ruleset signature."""

    def __init__(self, path: Path, signature: str) -> None:
        self.path = path
        self.signature = signature
        self._files: Dict[str, dict] = {}
        self._project: Optional[dict] = None
        self._dirty = False
        self.hits = 0
        self.misses = 0

    # -- persistence --------------------------------------------------

    @classmethod
    def load(cls, path: Path, signature: str) -> "LintCache":
        cache = cls(path, signature)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return cache
        if (
            not isinstance(document, dict)
            or document.get("schema") != CACHE_SCHEMA
            or document.get("signature") != signature
        ):
            return cache  # different tool/ruleset: start fresh
        files = document.get("files")
        if isinstance(files, dict):
            cache._files = files
        project = document.get("project")
        if isinstance(project, dict):
            cache._project = project
        return cache

    def save(self) -> None:
        if not self._dirty:
            return
        document = {
            "schema": CACHE_SCHEMA,
            "signature": self.signature,
            "files": self._files,
            "project": self._project,
        }
        try:
            self.path.write_text(
                json.dumps(document, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError:
            pass  # a read-only tree just runs uncached

    # -- per-file entries ---------------------------------------------

    def get_file(
        self, path: str, sha: str
    ) -> Optional[Tuple[List[Finding], int]]:
        entry = self._files.get(path)
        if entry is None or entry.get("sha") != sha:
            self.misses += 1
            return None
        try:
            findings = [Finding.from_dict(raw) for raw in entry["findings"]]
            suppressed = int(entry["suppressed"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings, suppressed

    def put_file(
        self, path: str, sha: str, findings: List[Finding], suppressed: int
    ) -> None:
        self._files[path] = {
            "sha": sha,
            "findings": [finding.as_dict() for finding in findings],
            "suppressed": suppressed,
        }
        self._dirty = True

    def prune(self, live_paths: Sequence[str]) -> None:
        """Drop entries for files no longer part of the run."""
        live = set(live_paths)
        stale = [path for path in self._files if path not in live]
        for path in stale:
            del self._files[path]
            self._dirty = True

    # -- the whole-program entry --------------------------------------

    def get_project(
        self, key: str
    ) -> Optional[Tuple[List[Finding], int, bool]]:
        entry = self._project
        if entry is None or entry.get("tree") != key:
            return None
        try:
            findings = [Finding.from_dict(raw) for raw in entry["findings"]]
            return findings, int(entry["suppressed"]), bool(entry["analyzed"])
        except (KeyError, TypeError, ValueError):
            return None

    def put_project(
        self, key: str, findings: List[Finding], suppressed: int, analyzed: bool
    ) -> None:
        self._project = {
            "tree": key,
            "findings": [finding.as_dict() for finding in findings],
            "suppressed": suppressed,
            "analyzed": analyzed,
        }
        self._dirty = True
