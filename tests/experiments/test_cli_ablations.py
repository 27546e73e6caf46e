# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for the CLI and the ablation studies."""

import json

import pytest

from repro.experiments import EXPERIMENTS, ablations, figure5a
from repro.experiments.cli import main as cli_main
from repro.experiments.common import (
    SCALES,
    ExperimentResult,
    Series,
    SeriesPoint,
    measurement_from_envelopes,
    render_table,
)
from repro.core import IterativeRedundancy
from repro.parallel import dca_replicate_specs, run_dca_replicates


def _measure(jobs=1, **point):
    """One IR d=2 sweep point, measured the way the figures measure it."""
    specs = dca_replicate_specs(lambda: IterativeRedundancy(2), **point)
    return measurement_from_envelopes(run_dca_replicates(specs, jobs=jobs))


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert cli_main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert cli_main(["figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_examples(self, capsys):
        assert cli_main(["examples"]) == 0
        assert "Table E1" in capsys.readouterr().out

    def test_telemetry_flag_writes_capture(self, tmp_path, capsys):
        from repro.obs import Capture
        from repro.obs.context import current_sink

        target = tmp_path / "cap.json"
        assert cli_main(["examples", "--telemetry", str(target)]) == 0
        assert "telemetry capture written" in capsys.readouterr().err
        capture = Capture.load(target)
        assert capture.meta["label"] == "experiments:examples"
        assert capture.meta["scale"] == "default"
        # The sink must not leak past the command.
        assert current_sink() is None

    def test_scale_flag_validated(self):
        with pytest.raises(SystemExit):
            cli_main(["examples", "--scale", "galactic"])


class TestCommon:
    def test_render_table_alignment_and_notes(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], ["x", float("nan")]], ["hello"])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "note: hello" in text
        assert "-" in lines[-2]  # nan rendered as '-'

    def test_replicate_dca_aggregates(self):
        m = _measure(tasks=300, nodes=100, reliability=0.8, replications=2, seed=1)
        assert m.replications == 2
        assert m.mean_cost > 0
        assert 0 <= m.mean_reliability <= 1
        assert m.cost_err >= 0

    def test_replicate_requires_positive_reps(self):
        with pytest.raises(ValueError):
            _measure(tasks=10, nodes=10, reliability=0.7, replications=0, seed=0)

    def test_single_replicate_has_zero_error_bars(self):
        # Regression: one replicate must yield 0.0 standard errors (a
        # defined, plottable value), never NaN or a ZeroDivisionError.
        m = _measure(tasks=100, nodes=50, reliability=0.8, replications=1, seed=3)
        assert m.replications == 1
        assert m.cost_err == 0.0
        assert m.reliability_err == 0.0

    def test_jobs_do_not_change_measurements(self):
        kwargs = dict(
            tasks=100, nodes=50, reliability=0.8, replications=2, seed=4
        )
        serial = _measure(jobs=1, **kwargs)
        fanned = _measure(jobs=3, **kwargs)
        assert serial == fanned

    def test_series_by_name(self):
        result = ExperimentResult("t", [Series("A"), Series("B")])
        assert result.series_by_name("B").name == "B"
        with pytest.raises(KeyError):
            result.series_by_name("C")


class TestAblations:
    def test_theorem1_rows_identical(self):
        text = ablations.theorem1_ablation(tasks=600)
        lines = [l for l in text.splitlines() if l.startswith(("simple", "complex"))]
        simple_fields = lines[0].split()[-2:]
        complex_fields = lines[1].split()[-2:]
        assert simple_fields == complex_fields

    def test_defection_hurts_adaptive_more_than_iterative(self):
        text = ablations.defection_ablation(tasks=600)
        lines = [l for l in text.splitlines() if l.startswith(("adaptive", "iterative"))]
        adaptive_reliability = float(lines[0].split()[-1])
        iterative_reliability = float(lines[1].split()[-1])
        assert iterative_reliability > adaptive_reliability

    def test_priority_improves_response_time(self):
        text = ablations.priority_ablation(tasks=800)
        lines = [l for l in text.splitlines() if "first" in l or "FIFO" in l]
        priority_resp = float(lines[0].split()[-3])
        fifo_resp = float(lines[1].split()[-3])
        assert priority_resp < fifo_resp

    def test_worstcase_binary_is_lower_bound(self):
        text = ablations.worstcase_ablation(tasks=800)
        lines = text.splitlines()
        colluding = next(l for l in lines if l.startswith("colluding"))
        diverse = next(l for l in lines if l.startswith("non-colluding"))
        assert float(diverse.split()[-1]) > float(colluding.split()[-1])

    def test_whitewash_evasion_defeats_credibility(self):
        text = ablations.whitewash_ablation(tasks=400)
        assert "whitewashing" in text
        lines = text.splitlines()
        naive = next(l for l in lines if "naive" in l)
        evading = next(l for l in lines if "check-evading" in l)
        iterative = next(l for l in lines if l.startswith("iterative"))
        assert float(evading.split()[-1]) < float(naive.split()[-1])
        assert float(iterative.split()[-1]) > float(evading.split()[-1])

    def test_checkpointing_reduces_wall_clock(self):
        text = ablations.checkpointing_ablation(tasks=500)
        lines = text.splitlines()
        none = next(l for l in lines if l.startswith("no checkpoints"))
        young = next(l for l in lines if "tau*" in l)
        assert float(young.split()[-3]) < float(none.split()[-3])

    def test_main_through_the_pool_matches_serial(self):
        # jobs=2 ships _run_section through a real process pool, which
        # pickles it: an unpicklable worker fails here, and so does any
        # section whose output depends on state a worker process lacks.
        assert ablations.main("smoke", jobs=2) == ablations.main("smoke", jobs=1)


@pytest.fixture(scope="module")
def figure5a_smoke():
    return figure5a.compute(**SCALES["smoke"])


class TestCliJsonPlot:
    def test_json_output_parses(self, capsys):
        assert cli_main(["figure3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["title"].startswith("Figure 3")
        assert {s["name"] for s in payload["series"]} == {"TR", "PR", "IR"}

    def test_json_unavailable_for_tables(self, capsys):
        assert cli_main(["examples", "--json"]) == 2
        assert "no JSON output" in capsys.readouterr().err

    def test_plot_appended(self, capsys):
        assert cli_main(["figure3", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "legend: T = TR" in out

    def test_plot_unavailable_message(self, capsys):
        assert cli_main(["examples", "--plot"]) == 0
        assert "no plot available" in capsys.readouterr().err

    def test_json_is_the_computation_at_the_chosen_scale(self, capsys, figure5a_smoke):
        assert cli_main(["figure5a", "--scale", "smoke", "--jobs", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == figure5a_smoke.as_dict()

    def test_plot_draws_the_computation_the_table_shows(self, capsys, figure5a_smoke):
        from repro.experiments.plotting import ascii_plot

        assert cli_main(["figure5a", "--scale", "smoke", "--jobs", "1", "--plot"]) == 0
        plot = ascii_plot(figure5a_smoke, x_label="cost factor", y_label="reliability")
        expected = f"{figure5a.render(figure5a_smoke)}\n\n{plot}\n"
        assert capsys.readouterr().out == expected


class TestCliJobs:
    def test_jobs_flag_output_byte_identical(self, capsys):
        # The acceptance bar for the replication engine: the CLI's output
        # is byte-identical whatever --jobs says.
        assert cli_main(["figure3", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert cli_main(["figure3", "--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial

    def test_jobs_flag_reaches_simulation(self, capsys):
        assert cli_main(["figure5a", "--scale", "smoke", "--jobs", "2"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["figure5a", "--scale", "smoke", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == first
