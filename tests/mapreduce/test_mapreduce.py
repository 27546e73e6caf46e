"""Tests for the MapReduce layer on the redundant DCA."""

import zlib

import pytest

from repro.core import IterativeRedundancy, NoRedundancy, TraditionalRedundancy
from repro.mapreduce import MapReduceJob, run_mapreduce, wordcount_job
from repro.mapreduce.engine import default_corruptor

TEXT = (
    "the quick brown fox jumps over the lazy dog "
    "the dog barks and the fox runs away into the quiet woods "
) * 30


def sum_job(values, identity=0):
    return MapReduceJob(
        chunks=tuple(values),
        map_function=lambda x: x * x,
        reduce_function=lambda a, b: a + b,
        identity=identity,
    )


class TestJobDescriptions:
    def test_expected_output_folds_honestly(self):
        job = sum_job([1, 2, 3])
        assert job.expected_output() == 14

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError):
            MapReduceJob(chunks=(), map_function=int, reduce_function=max, identity=0)

    def test_wordcount_chunking_covers_text(self):
        job = wordcount_job(TEXT, chunk_size=100)
        assert job.num_tasks > 5
        rebuilt = " ".join(job.chunks)
        assert rebuilt.split() == TEXT.split()

    def test_wordcount_expected_counts(self):
        job = wordcount_job("a b a. A!", chunk_size=1000)
        assert dict(job.expected_output()) == {"a": 3, "b": 1}

    def test_wordcount_validation(self):
        with pytest.raises(ValueError):
            wordcount_job("")
        with pytest.raises(ValueError):
            wordcount_job("hello", chunk_size=0)


class TestDefaultCorruptor:
    def test_always_differs_from_truth(self):
        for output in (True, 7, 3.5, (("a", 1), ("b", 2)), "opaque"):
            assert default_corruptor(0, output) != output

    def test_count_tuples_stay_reduce_compatible(self):
        corrupted = default_corruptor(1, (("a", 1), ("b", 2)))
        assert all(len(pair) == 2 for pair in corrupted)

    @pytest.mark.parametrize("output", ["opaque", ("x",), ("a", (2, 3.5)), None])
    def test_tag_is_the_crc_of_the_repr(self, output):
        assert default_corruptor(2, output) == ("corrupted", 2, zlib.crc32(repr(output).encode()) & 0xFFFF)

    def test_set_tag_lists_members_sorted(self):
        """A set's ``repr`` follows hash order; its tag must not."""
        words = frozenset({"to", "be", "or", "not"})
        text = "(frozenset({'be', 'not', 'or', 'to'}), 1)"
        assert default_corruptor(3, (words, 1)) == ("corrupted", 3, zlib.crc32(text.encode()) & 0xFFFF)


class TestExecution:
    def test_reliable_pool_exact_result(self):
        job = sum_job(range(20))
        report = run_mapreduce(job, TraditionalRedundancy(3), reliability=1.0, seed=1)
        assert report.correct
        assert report.output == job.expected_output()
        assert report.corrupted_chunks == 0
        assert report.cost_factor == 3.0

    def test_redundancy_protects_against_corruption(self):
        """At r = 0.75, bare execution corrupts many chunks; iterative
        redundancy with a healthy margin fixes nearly all of them."""
        job = sum_job(range(150))
        bare = run_mapreduce(job, NoRedundancy(), reliability=0.75, seed=2)
        guarded = run_mapreduce(job, IterativeRedundancy(5), reliability=0.75, seed=2)
        assert bare.corrupted_chunks > guarded.corrupted_chunks
        assert guarded.map_reliability > 0.95

    def test_wordcount_end_to_end(self):
        job = wordcount_job(TEXT, chunk_size=150)
        report = run_mapreduce(job, IterativeRedundancy(4), reliability=0.8, seed=3)
        assert report.map_reliability > 0.9
        if report.correct:
            assert dict(report.output)["fox"] == 60

    def test_corrupted_chunks_flow_into_output(self):
        """A lost vote visibly corrupts the reduced result."""
        job = sum_job(range(40))
        report = run_mapreduce(job, NoRedundancy(), reliability=0.3, seed=4)
        assert report.corrupted_chunks > 0
        assert not report.correct
        assert report.output > job.expected_output()  # corruption inflates

    def test_corruptor_must_differ(self):
        from repro.mapreduce.engine import MapReduceEngine

        job = sum_job([1, 2])
        engine = MapReduceEngine(
            TraditionalRedundancy(3),
            reliability=1.0,
            corruptor=lambda index, output: output,  # fails to corrupt
        )
        with pytest.raises(ValueError):
            engine.run(job)

    def test_map_report_carries_dca_measures(self):
        job = sum_job(range(30))
        report = run_mapreduce(job, TraditionalRedundancy(3), reliability=0.9, seed=6)
        assert report.map_report.tasks_completed == 30
        assert report.map_report.mean_response_time > 0

    def test_map_report_counts_churn_and_spot_checks(self):
        """The map phase ends through ``DcaSimulation.run``, so its report
        carries the run's joins, departures and spot checks."""
        job = sum_job(range(300))
        churned = run_mapreduce(
            job, IterativeRedundancy(2), nodes=40, seed=13,
            arrival_rate=2.0, departure_rate=2.0,
        ).map_report
        assert churned.nodes_joined > 0 and churned.nodes_departed > 0
        checked = run_mapreduce(
            job, IterativeRedundancy(2), nodes=40, seed=13, spot_check_rate=0.2
        ).map_report
        assert checked.spot_checks > 0

    def test_horizon_that_leaves_chunks_unverified_is_rejected(self):
        job = sum_job(range(200))
        with pytest.raises(ValueError, match="max_time"):
            run_mapreduce(job, IterativeRedundancy(2), nodes=10, seed=1, max_time=2.0)
