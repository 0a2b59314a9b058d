"""Discrete-event simulation substrate.

The paper evaluates LiFTinG on PlanetLab (300 nodes, UDP data path, TCP
audits, ~4 % message loss, heterogeneous links).  This package is the
testbed substitute: a deterministic discrete-event simulator with

* an event engine with a simulated clock and one ordered event spine
  (:mod:`repro.sim.engine`),
* lossy-datagram and reliable-stream channel models with pluggable
  latency/loss models and per-node upload-bandwidth throttling
  (:mod:`repro.sim.network`),
* byte-level message accounting for the overhead measurements of
  Table 5 (:mod:`repro.sim.trace`).

Protocol code is transport-agnostic: the same node objects also run on
the asyncio runtime in :mod:`repro.runtime`.
"""

from repro.sim.bandwidth import UploadLink
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel, UniformLatency
from repro.sim.loss import BernoulliLoss, LossModel, NoLoss, PerNodeLoss
from repro.sim.network import Endpoint, Network, Transport
from repro.sim.trace import MessageTrace

__all__ = [
    "BernoulliLoss",
    "ConstantLatency",
    "Endpoint",
    "LatencyModel",
    "LossModel",
    "MessageTrace",
    "Network",
    "NoLoss",
    "PerNodeLoss",
    "Simulator",
    "Transport",
    "UniformLatency",
    "UploadLink",
]
