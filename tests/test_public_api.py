"""Public-API surface checks.

Guards the contract a downstream user relies on: every package's
``__all__`` resolves, every public item carries a docstring, and the
top-level convenience imports documented in the README exist.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.dca",
    "repro.sat",
    "repro.volunteer",
    "repro.grid",
    "repro.mapreduce",
    "repro.experiments",
    "repro.parallel",
    "repro.bench",
    "repro.obs",
    "repro.lint",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} should define __all__"
    for item in exported:
        assert hasattr(module, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for item in getattr(module, "__all__", []):
        obj = getattr(module, item)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert inspect.getdoc(obj), f"{name}.{item} lacks a docstring"


def test_readme_quickstart_imports():
    from repro.core import IterativeRedundancy, analysis  # noqa: F401
    from repro.dca import DcaConfig, run_dca  # noqa: F401
    from repro.volunteer import VolunteerConfig, run_volunteer  # noqa: F401


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_experiment_registry_modules_have_entry_points():
    from repro.experiments import EXPERIMENTS

    for name, module in EXPERIMENTS.items():
        assert callable(getattr(module, "main", None)), f"{name} lacks main()"
        assert module.__doc__, f"experiment {name} lacks a docstring"


def test_strategies_share_the_wave_decider_contract():
    from repro.core import (
        AdaptiveReplication,
        ComplexIterativeRedundancy,
        CredibilityManager,
        CredibilityStrategy,
        IterativeRedundancy,
        NoRedundancy,
        ProgressiveRedundancy,
        RedundancyStrategy,
        TraditionalRedundancy,
    )

    strategies = [
        TraditionalRedundancy(3),
        ProgressiveRedundancy(5),
        IterativeRedundancy(2),
        ComplexIterativeRedundancy(0.7, 0.9),
        CredibilityStrategy(CredibilityManager()),
        AdaptiveReplication(),
        NoRedundancy(),
    ]
    for strategy in strategies:
        assert isinstance(strategy, RedundancyStrategy)
        assert strategy.initial_jobs() >= 1
        assert isinstance(strategy.describe(), str)
