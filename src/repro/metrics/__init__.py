"""Measurement layer: the y-axes of the paper's figures and tables.

* :mod:`repro.metrics.health` — "fraction of nodes viewing a clear
  stream" versus stream lag (Figure 1).
* :mod:`repro.metrics.scores` — score distributions and the
  detection / false-positive report (Figures 10, 11, 14).
* :mod:`repro.metrics.overhead` — bandwidth overhead of the
  verifications relative to the stream (Table 5), and message-count
  summaries (Table 3).
* :mod:`repro.metrics.latency` — the exact percentile the load
  generator's latency histogram is checked against.
"""

from repro.metrics.health import HealthReport, health_curve, node_required_lag
from repro.metrics.latency import exact_percentile
from repro.metrics.overhead import OverheadReport, bandwidth_overhead
from repro.metrics.scores import DetectionReport, detection_report, score_distributions

__all__ = [
    "DetectionReport",
    "HealthReport",
    "OverheadReport",
    "bandwidth_overhead",
    "detection_report",
    "exact_percentile",
    "health_curve",
    "node_required_lag",
    "score_distributions",
]
