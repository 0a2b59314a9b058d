"""LiFTinG: Lightweight Freerider-Tracking in Gossip — full reproduction.

A production-quality reimplementation of Guerraoui, Huguenin, Kermarrec,
Monod & Prusty, *LiFTinG: Lightweight Freerider-Tracking in Gossip*
(MIDDLEWARE 2010), including every substrate the paper depends on:

* a deterministic discrete-event simulator with lossy-UDP / reliable-TCP
  channel models (:mod:`repro.sim`) standing in for PlanetLab;
* the three-phase gossip dissemination protocol (:mod:`repro.gossip`);
* membership / random peer sampling (:mod:`repro.membership`);
* freerider and colluder behaviour models (:mod:`repro.nodes`);
* LiFTinG itself — direct verifications, cross-checking, entropy-based
  history audits, the manager-based reputation substrate and expulsion
  (:mod:`repro.core`);
* the closed-form analysis (:mod:`repro.analysis`) and the vectorised
  Monte-Carlo engine that backs it (:mod:`repro.mc`);
* metrics and experiment runners regenerating every figure and table of
  the paper's evaluation (:mod:`repro.metrics`, :mod:`repro.experiments`);
* an asyncio runtime that runs the very same protocol objects over real
  UDP/TCP sockets (:mod:`repro.runtime`);
* the declarative scenario registry — every experiment is registered
  against one engine and returns a uniform JSON-serialisable
  :class:`RunResult` envelope (:mod:`repro.scenarios`)::

      from repro import run_scenario
      result = run_scenario("fig1", n=100, duration=25.0, jobs=3)

Quickstart::

    from repro import ClusterConfig, SimCluster, planetlab_params

    gossip, lifting = planetlab_params()
    cluster = SimCluster(ClusterConfig(gossip=gossip, lifting=lifting,
                                       freerider_fraction=0.1, seed=1))
    cluster.run(until=30.0)
    print(cluster.detection().summary())
"""

from repro.analysis import (
    expected_blame_freerider,
    expected_blame_honest,
    max_bias_probability,
)
from repro.config import (
    FreeriderDegree,
    GossipParams,
    HONEST_DEGREE,
    LiftingParams,
    analysis_params,
    planetlab_params,
)
from repro.core import (
    Auditor,
    ExpulsionController,
    ManagerAssignment,
    ReputationManager,
    ScoreBoard,
    VerificationEngine,
)
from repro.experiments import ClusterConfig, SimCluster
from repro.gossip import GossipNode, LocalHistory, StreamSource
from repro.mc import BlameModel, simulate_scores
from repro.membership import FullMembership, GossipPeerSampling
from repro.metrics import detection_report, health_curve
from repro.nodes import ColludingBehavior, FreeriderBehavior, HonestBehavior
from repro.scenarios import (
    Param,
    RunResult,
    ScenarioSpec,
    list_scenarios,
    run_scenario,
    scenario,
)
from repro.sim import Network, Simulator

__version__ = "1.0.0"

__all__ = [
    "Auditor",
    "BlameModel",
    "ClusterConfig",
    "ColludingBehavior",
    "ExpulsionController",
    "FreeriderBehavior",
    "FreeriderDegree",
    "FullMembership",
    "GossipNode",
    "GossipParams",
    "GossipPeerSampling",
    "HONEST_DEGREE",
    "HonestBehavior",
    "LiftingParams",
    "LocalHistory",
    "ManagerAssignment",
    "Network",
    "Param",
    "ReputationManager",
    "RunResult",
    "ScenarioSpec",
    "ScoreBoard",
    "SimCluster",
    "Simulator",
    "StreamSource",
    "VerificationEngine",
    "analysis_params",
    "detection_report",
    "expected_blame_freerider",
    "expected_blame_honest",
    "health_curve",
    "list_scenarios",
    "max_bias_probability",
    "planetlab_params",
    "run_scenario",
    "scenario",
    "simulate_scores",
    "__version__",
]
