"""The columnar engine rejects configs outside its supported regime.

Every public way into the engine -- the report entry point, the
per-task-columns entry point and a columnar shard run -- must raise
:class:`ColumnarUnsupported` for a non-colluding failure model and for
a node-aware strategy, rather than run a model it does not implement.
"""

import pytest

pytest.importorskip("numpy")

from repro.core import CredibilityManager, CredibilityStrategy, IterativeRedundancy
from repro.dca import (
    ColumnarUnsupported,
    DcaConfig,
    NonColludingFailures,
    run_columnar_dca,
    run_columnar_dca_columns,
)
from repro.parallel import ReplicateError, run_dca_shards, shard_specs

SIZE = dict(tasks=60, nodes=12, reliability=0.7, seed=5)

#: (case id, strategy factory, extra DcaConfig fields, message fragment).
UNSUPPORTED = [
    (
        "non-colluding-failures",
        lambda: IterativeRedundancy(3),
        {"failure_model": NonColludingFailures(value_space=8)},
        "colluding",
    ),
    (
        "node-aware-strategy",
        lambda: CredibilityStrategy(CredibilityManager()),
        {},
        "node-aware",
    ),
]


def _run_report(strategy_factory, overrides):
    run_columnar_dca(DcaConfig(strategy=strategy_factory(), **SIZE, **overrides))


def _run_columns(strategy_factory, overrides):
    run_columnar_dca_columns(DcaConfig(strategy=strategy_factory(), **SIZE, **overrides))


def _run_shards(strategy_factory, overrides):
    specs = shard_specs(
        strategy_factory, shards=2, engine="columnar", **SIZE, **overrides
    )
    try:
        run_dca_shards(specs, jobs=1)
    except ReplicateError as exc:
        # The shard layer wraps worker errors; the rejection must show.
        assert exc.error_type == "ColumnarUnsupported"
        assert "ColumnarUnsupported" in str(exc)
        raise ColumnarUnsupported(str(exc)) from exc


ENTRY_POINTS = [
    ("run_columnar_dca", _run_report),
    ("run_columnar_dca_columns", _run_columns),
    ("run_dca_shards", _run_shards),
]


@pytest.mark.parametrize(
    "entry", [run for _, run in ENTRY_POINTS], ids=[name for name, _ in ENTRY_POINTS]
)
@pytest.mark.parametrize(
    "strategy_factory,overrides,fragment",
    [case[1:] for case in UNSUPPORTED],
    ids=[case[0] for case in UNSUPPORTED],
)
def test_entry_point_rejects_unsupported_regime(entry, strategy_factory, overrides, fragment):
    with pytest.raises(ColumnarUnsupported, match=fragment):
        entry(strategy_factory, overrides)
