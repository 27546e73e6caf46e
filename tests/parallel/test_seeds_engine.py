# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Unit tests for the replication engine primitives: seed derivation,
pool-task sizing, job resolution, ordered parallel mapping, and crash
surfacing."""

import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.parallel import (
    ReplicateError,
    fingerprint_of,
    parallel_map,
    replicate_seeds,
    resolve_jobs,
)
from repro.parallel import engine
from repro.sim.rng import RngRegistry


class TestReplicateSeeds:
    def test_deterministic(self):
        assert replicate_seeds(42, 5) == replicate_seeds(42, 5)

    def test_prefix_closed(self):
        # The first n seeds of a longer schedule are the schedule itself:
        # growing `replications` never perturbs earlier replicates.
        assert replicate_seeds(42, 8)[:3] == replicate_seeds(42, 3)

    def test_distinct_across_replicates_and_bases(self):
        seeds = replicate_seeds(7, 64)
        assert len(set(seeds)) == 64
        assert set(seeds).isdisjoint(replicate_seeds(8, 64))

    def test_matches_registry_spawn(self):
        # The schedule is exactly RngRegistry.spawn on the replicate key,
        # so engine users and hand-rolled spawns can never disagree.
        registry = RngRegistry(3)
        assert replicate_seeds(3, 2) == (
            registry.spawn("replicate:0").seed,
            registry.spawn("replicate:1").seed,
        )

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            replicate_seeds(0, 0)


class TestResolveJobsAndChunks:
    def test_explicit_jobs(self):
        assert resolve_jobs(3) == 3

    def test_default_is_cpu_count(self):
        import os

        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_default_submits_one_item_per_task(self, monkeypatch):
        # One item per pool task, so an idle worker pulls the next item.
        sizes = _record_task_sizes(monkeypatch)
        assert parallel_map(_square, range(9), jobs=2) == [x * x for x in range(9)]
        assert sizes == [1] * 9

    def test_explicit_chunk_size_groups_items(self, monkeypatch):
        sizes = _record_task_sizes(monkeypatch)
        assert parallel_map(_square, range(9), jobs=2, chunk_size=4) == [
            x * x for x in range(9)
        ]
        assert sizes == [4, 4, 1]

    def test_rejects_non_positive_chunk_size(self):
        with pytest.raises(ValueError):
            parallel_map(_square, range(3), jobs=2, chunk_size=0)


def _record_task_sizes(monkeypatch):
    """Patch the engine's pool to log how many items each task carries."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            sizes.append(len(args[1]))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    return sizes


def _square(x):
    return x * x


def _uneven(x):
    """Cost grows steeply with ``x`` so the pool's tasks finish out of order."""
    time.sleep(0.002 * (x % 5) ** 2)
    return (x, x * x)


def _slow_fail_early(x):
    # The lowest failing position is also the slowest item, so it
    # completes after the later failure.
    if x == 1:
        time.sleep(0.3)
        raise ValueError("slow failure at 1")
    if x == 6:
        raise ValueError("fast failure at 6")
    return x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


class TestParallelMap:
    def test_serial_and_parallel_agree(self):
        items = list(range(23))
        serial = parallel_map(_square, items, jobs=1)
        parallel = parallel_map(_square, items, jobs=4)
        assert serial == parallel == [x * x for x in items]

    def test_order_preserved_with_tiny_chunks(self):
        items = list(range(17))
        assert parallel_map(_square, items, jobs=4, chunk_size=1) == [
            x * x for x in items
        ]

    def test_uneven_costs_parallel_matches_serial(self):
        items = [4, 0, 3, 1, 4, 2, 0, 4, 3, 1, 2]
        assert parallel_map(_uneven, items, jobs=2) == parallel_map(_uneven, items, jobs=1)

    def test_crash_lowest_position_wins_over_earlier_completion(self):
        with pytest.raises(ReplicateError) as excinfo:
            parallel_map(_slow_fail_early, list(range(8)), jobs=2)
        assert excinfo.value.position == 1
        assert "slow failure at 1" in str(excinfo.value)

    def test_crash_names_lowest_failed_position(self):
        with pytest.raises(ReplicateError) as excinfo:
            parallel_map(_fail_on_odd, [0, 2, 5, 4, 3], jobs=4)
        assert excinfo.value.position == 2
        assert "odd input 5" in str(excinfo.value)
        assert excinfo.value.error_type == "ValueError"

    def test_serial_crash_same_surface(self):
        with pytest.raises(ReplicateError) as excinfo:
            parallel_map(_fail_on_odd, [0, 2, 5, 4, 3], jobs=1)
        assert excinfo.value.position == 2
        assert "odd input 5" in str(excinfo.value)


class TestFingerprint:
    def test_stable_under_key_order(self):
        assert fingerprint_of({"a": 1, "b": 2.5}) == fingerprint_of(
            {"b": 2.5, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert fingerprint_of({"a": 1}) != fingerprint_of({"a": 2})
