# reprolint: disable-file=RL003 -- byte-exact equality is the property under test
"""Telemetry observes, never perturbs: the subsystem's core contract.

Recording off, uncapped, or capped leaves the same-seed DCA report
byte-identical: the golden DES rows of ``tests/determinism/table.py``
pin that.  Here:

* replicate metrics and fingerprints are unchanged by telemetry;
* position-merged telemetry is byte-identical for ``jobs=4`` and
  ``jobs=1`` runs of the same specs.
"""

import json

from repro.core import IterativeRedundancy
from repro.obs import TelemetrySink, clear_sink, install_sink
from repro.parallel import (
    dca_replicate_specs,
    merge_telemetry,
    run_dca_replicates,
)


def _specs(telemetry=False):
    return dca_replicate_specs(
        lambda: IterativeRedundancy(3),
        tasks=40,
        nodes=20,
        reliability=0.7,
        replications=4,
        seed=77,
        telemetry=telemetry,
    )


def test_telemetry_flag_does_not_change_fingerprints():
    plain = run_dca_replicates(_specs(telemetry=False), jobs=1)
    recorded = run_dca_replicates(_specs(telemetry=True), jobs=1)
    assert [e.fingerprint for e in plain] == [e.fingerprint for e in recorded]
    assert all(e.telemetry is None for e in plain)
    assert all(e.telemetry is not None for e in recorded)


def test_parallel_merged_telemetry_matches_serial_bytes():
    serial = merge_telemetry(run_dca_replicates(_specs(telemetry=True), jobs=1))
    fanned = merge_telemetry(run_dca_replicates(_specs(telemetry=True), jobs=4))
    assert json.dumps(serial, sort_keys=True) == json.dumps(fanned, sort_keys=True)


def test_merge_telemetry_none_without_payloads():
    assert merge_telemetry(run_dca_replicates(_specs(), jobs=1)) is None


def test_installed_sink_upgrades_specs_and_collects_runs():
    sink = TelemetrySink()
    install_sink(sink)
    try:
        envelopes = run_dca_replicates(_specs(), jobs=1)
    finally:
        clear_sink()
    assert all(e.telemetry is not None for e in envelopes)
    (run,) = sink.runs
    assert run["label"] == "iterative(d=3) x4"
    assert run["metrics"]["dca.accept"]["series"][0]["value"] == 4 * 40
    capture = sink.capture({"label": "t"})
    assert capture.runs and capture.spans
