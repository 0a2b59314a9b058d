"""Experiment scenarios — one per paper figure/table.

:class:`~repro.experiments.cluster.SimCluster` builds a full simulated
deployment (network, membership, source, nodes with roles, managers,
expulsion controller) from a :class:`ClusterConfig`; the per-figure
modules register a scenario that configures and runs it (or the
Monte-Carlo engine) and reduces to the series the paper plots.  Run one
with ``repro.run_scenario(name, ...)``: its ``artifact`` is the result
class exported here.  ``benchmarks/scorecard.py`` checks the paper's
values against the ``metrics`` of these runs (docs/SCORECARD.md).
"""

from repro.experiments.calibration import CalibrationResult, calibrate
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.experiments.fig1 import Fig1Result
from repro.experiments.fig10 import Fig10Result
from repro.experiments.fig11 import Fig11Result
from repro.experiments.fig12 import Fig12Result
from repro.experiments.fig13 import Fig13Result
from repro.experiments.fig14 import Fig14Result
from repro.experiments.scaling import ScalingResult
from repro.experiments.table3 import Table3Result
from repro.experiments.table5 import Table5Result

__all__ = [
    "CalibrationResult",
    "ClusterConfig",
    "Fig1Result",
    "Fig10Result",
    "Fig11Result",
    "Fig12Result",
    "Fig13Result",
    "Fig14Result",
    "ScalingResult",
    "SimCluster",
    "Table3Result",
    "Table5Result",
    "calibrate",
]
