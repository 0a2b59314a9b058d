"""Frozen constants of the ledger: workloads, sizes, metric names, layers.

``BENCHMARK.json`` may carry only names, units, directions and bounds,
so every other constant the numbers depend on is frozen here and copied
into each run record.  Changing any of them redefines the benchmark:
re-measure the baseline in the same change.
"""

from __future__ import annotations

from typing import Dict, Tuple

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#: name -> why it was chosen (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "sim300_steady": (
        "SimCluster at the paper's PlanetLab scale (n=300, all honest): coalesced "
        "batch delivery; sim.network + gossip.protocol + core.verification hold ~2/3 of self time"
    ),
    "sim1000_steady": (
        "same deployment at n=1000: working set outgrows cache, so core.soa pooled "
        "columns, build time and RSS carry weight"
    ),
    "paper_scenarios": (
        "table5 + fig1 + churn through the registry: seven small builds per pass, per-entry "
        "delivery, LiFTinG-off and p_dcc=0 paths, reputation quarantine, SWIM detector"
    ),
    "live_loopback": (
        "asyncio plane on loopback (no real link): 32-outstanding closed loop over bare UDP "
        "at saturation; the traced pass adds TCP and an open loop at 3000 frames/s through 8 nodes"
    ),
}

#: the steady sims: PlanetLab parameters, fanout 5, 10 managers, all
#: honest, LiFTinG on, p_dcc=1.  ``setups`` full build+warm repetitions
#: feed setup_s; the window [warm_until, window_until] is fork-replayed
#: once under the profiler and then, while --seconds last, up to
#: ``max_reps`` times on the clock, in ``slices`` equal parts.
STEADY = {
    "sim300_steady": dict(n=300, warm_until=5.0, window_until=8.0, slices=12, setups=2, max_reps=8),
    "sim1000_steady": dict(n=1000, warm_until=3.0, window_until=4.0, slices=10, setups=2, max_reps=8),
}
STEADY_SMOKE = dict(n=24, warm_until=1.0, window_until=2.0, slices=4, setups=1, max_reps=2)
STEADY_FANOUT = 5
STEADY_MANAGERS = 10
STEADY_P_DCC = 1.0

#: one pass of paper_scenarios: (scenario, overrides, deployments run).
#: Simulated seconds of a call = duration x deployments (63 per pass).
PAPER_CALLS = (
    ("table5", dict(n=50, duration=3.0, rates_kbps=(674.0,), p_dcc_values=(0.0, 0.5, 1.0)), 3),
    ("fig1", dict(n=60, duration=10.0, lags=(0.0, 2.0, 4.0, 6.0, 8.0)), 3),
    ("churn", dict(n=40, duration=24.0, rates=(0.3,)), 1),
)
PAPER_SMOKE_CALLS = (
    ("table5", dict(n=24, duration=1.0, rates_kbps=(674.0,), p_dcc_values=(0.0, 1.0)), 2),
    ("fig1", dict(n=24, duration=2.0, lags=(0.0, 1.0)), 3),
    ("churn", dict(n=24, duration=4.0, rates=(0.3,)), 1),
)
PAPER_PASSES = dict(max_passes=3, setups=2)
PAPER_SMOKE_PASSES = dict(max_passes=1, setups=1)

#: live_loopback.  Closed stage: ``window`` Serve frames outstanding; a
#: stall of ``stall_s`` counts the window as lost and refills it; between
#: ``min_segments`` and ``max_segments`` segments inside --seconds, then
#: ``counted_segments`` under the profiler.  Open stage (traced pass):
#: one fixed sub-knee rate for ``open_share`` of --seconds, phase 0 is
#: warm-up; a stage that lost frames to a host stall is run again, at
#: most ``open_attempts`` times in all.
LIVE = dict(
    window=32, stall_s=0.5, segment_frames=10_000, min_segments=4, max_segments=40,
    counted_segments=3, tcp_segment_frames=25_000, tcp_segments=4, setups=2,
    n=8, rate=3000.0, phase_s=1.0, min_phases=3, open_share=0.8, open_attempts=3,
)
LIVE_SMOKE = dict(
    window=32, stall_s=0.5, segment_frames=1_000, min_segments=4, max_segments=4,
    counted_segments=2, tcp_segment_frames=1_000, tcp_segments=2, setups=1,
    n=6, rate=600.0, phase_s=0.4, min_phases=3, open_share=1.0, open_attempts=3,
)

#: direct drives and the noise canary.
DRIVE_EVENTS = 10_000
DRIVE_MSGS = 10_000
DRIVE_CODEC_ROUNDS = 200
CANARY_LOOPS = 400_000

# ----------------------------------------------------------------------
# end-to-end metrics: (name, unit, better, bound)
# ----------------------------------------------------------------------
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("py_calls_per_stream_s", "calls/stream-s", "lower", 0.05),
    ("peak_rss_mib", "MiB", "lower", 0.05),
)

# ----------------------------------------------------------------------
# layers: this repo's modules, grouped by dotted-path prefix under
# ``repro.`` (first match wins, so longer prefixes come first).
# ----------------------------------------------------------------------
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim.engine", "sim.engine"),
    ("sim.", "sim.network"),  # network, latency, loss, trace, bandwidth
    ("gossip.history", "gossip.history"),
    ("util.multiset", "gossip.history"),
    ("gossip.", "gossip.protocol"),  # protocol, chunks, messages
    ("core.verification", "core.verification"),
    ("core.blames", "core.verification"),
    ("core.reputation", "core.reputation"),
    ("core.detector", "core.reputation"),
    ("core.audit", "core.audit"),  # audit, auditlog
    ("core.soa", "core.soa"),
    ("core.invariants", "core.invariants"),
    ("membership.failure_detector", "membership.failure_detector"),
    ("membership.", "membership"),  # full, rps, base
    ("nodes.", "behaviors"),
    ("adversary.", "behaviors"),
    ("wire_codec", "wire_codec"),
    ("wire", "wire"),
    ("loadgen.", "loadgen"),
    ("runtime.transport", "runtime.transport"),
    ("runtime.resilience", "runtime.resilience"),
    ("runtime.", "harness"),  # parallel, cluster, faults
    ("experiments.", "harness"),
    ("scenarios.", "harness"),
    ("metrics.", "harness"),
    ("util.", "harness"),  # rng, validation, stats, provenance, profiling
    ("config", "harness"),
)
#: stdlib modules that make up the live plane's event loop.
EVENTLOOP_MODULES = ("asyncio", "selectors", "socket")

SIM_LAYERS = (
    "sim.engine", "sim.network", "gossip.protocol", "gossip.history",
    "core.verification", "core.reputation", "core.audit", "core.soa",
    "core.invariants", "membership", "membership.failure_detector",
    "behaviors", "wire", "harness", "other",
)
LIVE_LAYERS = (
    "loadgen", "wire_codec", "runtime.transport", "runtime.resilience",
    "gossip.protocol", "eventloop",
)
ALL_LAYERS = SIM_LAYERS + tuple(layer for layer in LIVE_LAYERS if layer not in SIM_LAYERS)


def layer_of_module(dotted: str) -> str:
    """Layer of ``repro.<dotted>``: table first, then ``<pkg>``, then other."""
    for prefix, layer in LAYER_PREFIXES:
        if dotted.startswith(prefix):
            return layer
    package = dotted.split(".", 1)[0]
    return package if package in ALL_LAYERS else "other"


# ----------------------------------------------------------------------
# per-layer metrics: name -> (unit, better).  Every traced run reports
# every name; a layer the workload does not execute reads 0.
# ----------------------------------------------------------------------
def _per_layer() -> Dict[str, Tuple[str, str]]:
    out: Dict[str, Tuple[str, str]] = {}
    for layer in ALL_LAYERS:
        out[f"{layer}.self_cpu_share"] = ("share", "lower")
    for layer in SIM_LAYERS:
        out[f"{layer}.py_calls_per_sim_s"] = ("calls/sim-s", "lower")
    for layer in LIVE_LAYERS:
        out[f"{layer}.py_calls_per_frame"] = ("calls/frame", "lower")
    out.update({
        # demoted from end-to-end (see README "What the contract changed")
        "cpu_s_per_stream_s": ("cpu-s/stream-s", "lower"),
        "py_calls_per_sim_s": ("calls/sim-s", "lower"),
        "sojourn_p50_ms": ("ms", "lower"),
        "frames_per_s": ("1/s", "higher"),
        # sim counters read from public state
        "sim.engine.events_per_sim_s": ("1/sim-s", "lower"),
        "sim.network.msgs_sent_per_sim_s": ("1/sim-s", "lower"),
        "sim.network.msgs_lost_share": ("share", "lower"),
        "core.reputation.blames_per_sim_s": ("1/sim-s", "lower"),
        # harness spans
        "harness.build_s": ("cpu-s", "lower"),
        "harness.warmup_s": ("cpu-s", "lower"),
        "core.reputation.scores_ms": ("ms", "lower"),
        "scenarios.table5.cpu_s": ("cpu-s", "lower"),
        "scenarios.fig1.cpu_s": ("cpu-s", "lower"),
        "scenarios.churn.cpu_s": ("cpu-s", "lower"),
        # direct drives of a layer's public functions
        "sim.engine.drive_events_per_s": ("1/s", "higher"),
        "sim.network.drive_msgs_per_s": ("1/s", "higher"),
        "wire_codec.encode_us": ("us", "lower"),
        "wire_codec.decode_us": ("us", "lower"),
        "wire_codec.frame_bytes": ("bytes", "lower"),
        "runtime.transport.send_us": ("us", "lower"),
        "runtime.transport.tcp_frames_per_s": ("1/s", "higher"),
        # live plane, from the loadgen report and resilience_snapshot()
        "loadgen.ingress_p50_ms": ("ms", "lower"),
        "loadgen.queue_p50_ms": ("ms", "lower"),
        "loadgen.dispatch_p50_ms": ("ms", "lower"),
        "loadgen.sojourn_p99_ms": ("ms", "lower"),
        "loadgen.send_lag_mean_ms": ("ms", "lower"),
        "loadgen.loss_share": ("share", "lower"),
        "loadgen.open_cpu_us_per_frame": ("us", "lower"),
        "runtime.transport.ingress_high_water": ("count", "lower"),
        "runtime.transport.ingress_dropped": ("count", "lower"),
        "runtime.transport.decode_errors": ("count", "lower"),
        # instrument health
        "trace.overhead_ratio": ("ratio", "lower"),
        "host.noise_ratio": ("ratio", "lower"),
    })
    return out


PER_LAYER: Dict[str, Tuple[str, str]] = _per_layer()

# ----------------------------------------------------------------------
# how they interact: per-layer metric prefix -> (moves, on).  Written
# down before measuring; README.md carries the prose and predictions.
# ----------------------------------------------------------------------
_STEADY = ("sim300_steady", "sim1000_steady")
#: the gated count and the ungated clock reading of the same cost.
_COST = ("py_calls_per_stream_s", "cpu_s_per_stream_s")
INTERACTIONS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("sim.network.", _COST, _STEADY),
    ("gossip.protocol.", _COST, _STEADY),
    ("core.verification.", _COST, _STEADY),
    ("sim.engine.", _COST, _STEADY),
    ("gossip.history.", _COST, _STEADY),
    ("py_calls_per_sim_s", _COST, _STEADY + ("paper_scenarios",)),
    ("core.reputation.", _COST, ("paper_scenarios",)),
    ("core.audit.", _COST, ("paper_scenarios",)),
    ("core.invariants.", _COST, ("paper_scenarios",)),
    ("membership", _COST, ("paper_scenarios",)),
    ("behaviors.", _COST, ("paper_scenarios",)),
    ("scenarios.", _COST, ("paper_scenarios",)),
    ("harness.", ("setup_s",) + _COST, _STEADY + ("paper_scenarios",)),
    ("core.soa.", ("peak_rss_mib",) + _COST, ("sim1000_steady",)),
    ("wire_codec.", _COST + ("frames_per_s",), ("live_loopback",)),
    ("runtime.transport.", _COST + ("frames_per_s",), ("live_loopback",)),
    ("runtime.resilience.", _COST + ("frames_per_s",), ("live_loopback",)),
    ("eventloop.", _COST + ("frames_per_s",), ("live_loopback",)),
    ("loadgen.", ("sojourn_p50_ms",) + _COST, ("live_loopback",)),
    ("wire.", _COST, _STEADY + ("live_loopback",)),
)


def frozen_constants() -> Dict[str, object]:
    """Every constant a number depends on, for the run record."""
    names = (
        "STEADY", "STEADY_SMOKE", "STEADY_FANOUT", "STEADY_MANAGERS", "STEADY_P_DCC",
        "PAPER_CALLS", "PAPER_SMOKE_CALLS", "PAPER_PASSES", "PAPER_SMOKE_PASSES",
        "LIVE", "LIVE_SMOKE", "DRIVE_EVENTS", "DRIVE_MSGS", "DRIVE_CODEC_ROUNDS",
        "CANARY_LOOPS", "END_TO_END", "LAYER_PREFIXES", "EVENTLOOP_MODULES",
    )
    return {name: globals()[name] for name in names}
