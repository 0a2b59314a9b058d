"""Table 3 — message overhead of the verifications.

Runs a small deployment, counts the verification messages each node
sent per gossip period, and compares them with the expected-count model
of :mod:`repro.analysis.overhead` (confirms ≈ ``p_dcc · f²``, acks ≈
servers-per-period, responses ≈ confirms).  A second sweep over several
fanouts checks the ``O(f²)`` scaling claim by fitting the log-log
slope.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict

from repro.analysis.overhead import expected_message_counts, scaling_exponent
from repro.config import planetlab_params
from repro.experiments.cluster import ClusterConfig
from repro.metrics.overhead import message_counts_per_node_period
from repro.scenarios import Param, scenario
from repro.scenarios.parallel import Job


def _extract_message_counts(cluster, *, duration: float) -> Dict[str, float]:
    gossip = cluster.config.gossip
    return message_counts_per_node_period(
        cluster.trace, duration, gossip.n, gossip.gossip_period
    )


_TABLE3_PARAMS = (
    Param("n", int, 100, "system size", validate=lambda v: v >= 8, constraint=">= 8"),
    Param("duration", float, 12.0, "simulated seconds of the main deployment",
          validate=lambda v: v > 0, constraint="> 0"),
    Param("seed", int, 29, "deployment seed"),
    Param("p_dcc", float, 1.0, "cross-checking probability",
          validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
    Param("fanout_sweep", int, (4, 6, 8), sequence=True,
          help="fanouts for the O(f^2) scaling check"),
    Param("jobs", int, 1, "worker processes for the deployments (0 = all cores)"),
)


def _table3_reduce(results, params) -> dict:
    gossip, lifting = planetlab_params()
    by_key = {result.key: result for result in results}
    model = expected_message_counts(
        gossip.fanout, gossip.request_size, params["p_dcc"], lifting.managers
    )
    sweep = [
        (fanout, by_key[("fanout", fanout)].get("counts").get("Confirm", 0.0))
        for fanout in params["fanout_sweep"]
    ]
    xs = [f for f, c in sweep if c > 0]
    ys = [c for _f, c in sweep if c > 0]
    return {
        "measured_per_node_period": dict(by_key["main"].get("counts")),
        "model": {
            "serves": model.serves,
            "acks": model.acks,
            "confirms": model.confirms_sent,
            "responses": model.confirm_responses_sent,
            "max_blame_messages": model.max_blame_messages,
        },
        "fanout_sweep_confirms": [
            {"fanout": fanout, "confirms": confirms} for fanout, confirms in sweep
        ],
        "confirm_scaling_slope": (
            scaling_exponent(xs, ys) if len(xs) >= 2 else float("nan")
        ),
    }


@scenario(
    "table3",
    "Table 3 — verification message counts vs the expected-count model",
    params=_TABLE3_PARAMS,
    reduce=_table3_reduce,
    tags=("table", "deployment"),
    smoke={"n": 30, "duration": 4.0, "fanout_sweep": (4, 6)},
)
def _table3_scenario(params):
    """The main deployment plus one deployment per sweep fanout."""
    gossip_base, lifting_base = planetlab_params()
    gossip = replace(gossip_base, n=params["n"])
    lifting = replace(lifting_base, p_dcc=params["p_dcc"])
    duration = params["duration"]

    # Exclude the cold-start: normalise over the full run but report the
    # steady-state approximation (duration is long enough to dominate).
    job_list = [
        Job(
            config=ClusterConfig(gossip=gossip, lifting=lifting, seed=params["seed"]),
            until=duration,
            extractors=(
                ("counts", partial(_extract_message_counts, duration=duration)),
            ),
            key="main",
        )
    ]
    for fanout in params["fanout_sweep"]:
        job_list.append(
            Job(
                config=ClusterConfig(
                    gossip=replace(gossip, fanout=fanout), lifting=lifting,
                    seed=params["seed"],
                ),
                until=duration / 2,
                extractors=(
                    ("counts", partial(_extract_message_counts, duration=duration / 2)),
                ),
                key=("fanout", fanout),
            )
        )
    return job_list

