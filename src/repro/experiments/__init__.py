"""Experiment scenarios — one per paper figure/table.

:class:`~repro.experiments.cluster.SimCluster` builds a full simulated
deployment (network, membership, source, nodes with roles, managers,
expulsion controller) from a :class:`ClusterConfig`; each per-figure
module registers a scenario whose builder configures and runs it (or
the Monte-Carlo engine) and whose reducer returns the metrics the paper
plots.  Run one with ``repro.run_scenario(name, ...)`` and read its
``metrics``; ``benchmarks/scorecard.py`` checks the paper's values
against them (docs/SCORECARD.md).
"""

from repro.experiments.calibration import CalibrationResult, calibrate
from repro.experiments.cluster import ClusterConfig, SimCluster

# The figure/table modules register their scenarios on import.
from repro.experiments import (  # noqa: F401
    fig1,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    scaling,
    table3,
    table5,
)

__all__ = [
    "CalibrationResult",
    "ClusterConfig",
    "SimCluster",
    "calibrate",
]
