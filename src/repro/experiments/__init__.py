"""Experiment harnesses regenerating every figure in the paper.

Each module owns one figure (or the inline worked examples) and exposes

* ``compute(...)`` -- produce the figure's data series,
* ``render(result)`` -- format them as the text table the CLI prints,
* ``run(scale)`` -- ``compute`` with the arguments of a CLI scale (the
  figures only; ``--json`` and ``--plot`` show its result),
* ``main(scale)`` -- the text the CLI prints at a given scale.

Run from the command line::

    python -m repro.experiments --list
    python -m repro.experiments figure3
    python -m repro.experiments figure5a --scale full

| Experiment | Paper artefact | Module |
|---|---|---|
| ``figure3``  | analytic reliability vs cost (r = 0.7) | figure3 |
| ``figure5a`` | simulated (DES) reliability vs cost | figure5a |
| ``figure5b`` | volunteer/PlanetLab reliability vs cost + derived r | figure5b |
| ``figure5c`` | improvement over traditional redundancy vs r | figure5c |
| ``figure6``  | average response time vs cost | figure6 |
| ``examples`` | the paper's inline worked numbers ("Table E1") | examples_table |
| ``ablations``| beyond-the-paper studies (comparators, churn, ...) | ablations |
| ``sensitivity`` | off-operating-point design-space maps | sensitivity |
| ``schematics``  | Figures 1-2 as code-derived ASCII schematics | schematics |
"""

from repro.experiments import (
    ablations,
    common,
    examples_table,
    figure3,
    figure5a,
    figure5b,
    figure5c,
    figure6,
    schematics,
    sensitivity,
)

EXPERIMENTS = {
    "figure3": figure3,
    "figure5a": figure5a,
    "figure5b": figure5b,
    "figure5c": figure5c,
    "figure6": figure6,
    "examples": examples_table,
    "ablations": ablations,
    "sensitivity": sensitivity,
    "schematics": schematics,
}

__all__ = [
    "EXPERIMENTS",
    "ablations",
    "common",
    "examples_table",
    "figure3",
    "figure5a",
    "figure5b",
    "figure5c",
    "figure6",
    "schematics",
    "sensitivity",
]
