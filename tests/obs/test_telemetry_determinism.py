# reprolint: disable-file=RL003 -- byte-exact equality is the property under test
"""Telemetry observes, never perturbs: the subsystem's core contract.

Three pins:

* recording off, uncapped, or capped leaves the same-seed DCA report
  byte-identical (checked against the golden no-recorder digests);
* replicate metrics and fingerprints are unchanged by telemetry;
* position-merged telemetry is byte-identical for ``jobs=4`` and
  ``jobs=1`` runs of the same specs.
"""

import hashlib
import json

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.dca import DcaConfig, run_dca
from repro.obs import TelemetryRecorder, TelemetrySink, clear_sink, install_sink
from repro.parallel import (
    dca_replicate_specs,
    merge_telemetry,
    run_dca_replicates,
)

#: Mirrors two goldens (recorder payload digest, no-recorder report
#: digest) from tests/lint/test_golden_fingerprints.py; if those digests
#: are ever (deliberately) refreshed, refresh these too.
GOLDENS = [
    (
        lambda: IterativeRedundancy(3),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "95f64d5f8e59d267931a54726937f095ca52c0080a32bb0a867cc569893486f6",
        "6e787d9eebc179d726f9aa120b4cd05357dd3e05d1f06d435670807cf047b198",
    ),
    (
        lambda: TraditionalRedundancy(5),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "ace3a31a25bb24ea5fdc7097faf8adb79a19c65067a1ef10e02ced216b57bdb3",
        "56fb0158ccaabf898787a99d134659538fa81c63170fb48f064e5c876658cf28",
    ),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("factory,config_kwargs,recorded,bare", GOLDENS)
def test_golden_trace_identical_with_recorder_on_and_off(
    factory, config_kwargs, recorded, bare
):
    uncapped, capped = TelemetryRecorder(), TelemetryRecorder(max_spans=3)
    for recorder in (None, uncapped, capped):
        report = run_dca(DcaConfig(strategy=factory(), **config_kwargs), recorder=recorder)
        assert _sha256(report.to_json()) == bare
    assert _sha256(json.dumps(uncapped.as_payload(), sort_keys=True)) == recorded
    assert not capped.keeps_spans and capped.dropped_spans > 0


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
