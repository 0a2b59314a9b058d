"""Asyncio runtime: the protocol over real sockets.

The paper deployed LiFTinG on PlanetLab; this package is the
deployment-shaped counterpart of the simulator.  The *same*
:class:`~repro.gossip.protocol.GossipNode` objects run unchanged — only
the transport facade differs:

* datagram traffic (propose / request / serve / ack / confirm / blame)
  goes over real UDP sockets on the loopback interface;
* audits and history polls go over real TCP connections;
* timers run on the asyncio event loop in real time.

An optional synthetic loss rate drops outgoing datagrams so that the
compensation machinery is exercised even on a loss-free loopback.

Intended for functional deployments of tens of nodes in one process
(see ``examples/live_cluster.py``); the discrete-event simulator remains
the tool for measurements.

Only the live plane lives here, and no simulator module imports this
package: the job runner is :mod:`repro.scenarios.parallel` and the fault
script both planes run is :mod:`repro.faults`.
"""

from repro.runtime.cluster import RuntimeCluster, RuntimeConfig
from repro.runtime.resilience import (
    BoundedIngressQueue,
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
)
from repro.runtime.transport import AsyncTransport, NodeRegistry

__all__ = [
    "AsyncTransport",
    "BoundedIngressQueue",
    "CircuitBreaker",
    "NodeRegistry",
    "ResilienceConfig",
    "RetryPolicy",
    "RuntimeCluster",
    "RuntimeConfig",
]
