"""Direct drives: one layer's public functions, timed with nothing around them.

Run in every traced pass (they are workload-independent and cheap), so a
layer's raw speed can be read beside its share of a workload; they seed
the traced pass's metric table.
"""

from __future__ import annotations

import time
import typing
from typing import Dict

from benchmarks.ledger import spec
from benchmarks.ledger.measure import Spans


def _best_cpu(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


def _value_for(hint, rng):
    """A small seeded value of a wire field's declared type."""
    if hint is int:
        return int(rng.integers(0, 1 << 20))
    if hint is float:
        return float(rng.random())
    if hint is bool:
        return bool(rng.integers(0, 2))
    if hint is str:
        return "ledger"
    args = typing.get_args(hint)
    if len(args) == 2 and args[1] is Ellipsis:
        return tuple(_value_for(args[0], rng) for _ in range(4))
    return tuple(_value_for(arg, rng) for arg in args)


def wire_instances(seed: int) -> list:
    """One instance of every class in ``WIRE_MESSAGE_CLASSES``."""
    import dataclasses

    import numpy as np

    from repro.wire import WIRE_MESSAGE_CLASSES

    rng = np.random.default_rng(seed)
    out = []
    for cls in WIRE_MESSAGE_CLASSES:
        hints = typing.get_type_hints(cls)
        out.append(cls(**{f.name: _value_for(hints[f.name], rng) for f in dataclasses.fields(cls)}))
    return out


def drive_engine() -> float:
    """Events/s of 10k self-rescheduling ``Simulator.schedule`` calls."""
    from repro.sim import Simulator

    def run() -> None:
        sim = Simulator()
        state = [0]

        def tick(state) -> None:
            state[0] += 1
            if state[0] < spec.DRIVE_EVENTS:
                sim.schedule(sim.now + 0.001, tick, state)

        sim.schedule(0.001, tick, state)
        sim.run()
        if state[0] != spec.DRIVE_EVENTS:
            raise RuntimeError(f"engine drive fired {state[0]} of {spec.DRIVE_EVENTS} events")

    return spec.DRIVE_EVENTS / _best_cpu(run)


class _Sink:
    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.count = 0

    def on_message(self, src, message) -> None:
        self.count += 1


def drive_network(seed: int) -> float:
    """Messages/s of 10k ``Network.send`` under uniform latency + 4 % loss."""
    import numpy as np

    from repro.sim import BernoulliLoss, Network, Simulator, UniformLatency
    from repro.wire import Propose

    message = Propose(proposal_id=1, chunk_ids=(1, 2, 3))

    def run() -> None:
        sim = Simulator()
        net = Network(
            sim,
            latency=UniformLatency(np.random.default_rng(seed), 0.01, 0.08),
            loss=BernoulliLoss(np.random.default_rng(seed + 1), 0.04),
        )
        a, b = _Sink(0), _Sink(1)
        net.register(a)
        net.register(b)
        for _ in range(spec.DRIVE_MSGS):
            net.send(0, 1, message)
        sim.run()
        if not 0.9 * spec.DRIVE_MSGS < b.count <= spec.DRIVE_MSGS:
            raise RuntimeError(f"network drive delivered {b.count} of {spec.DRIVE_MSGS} messages")

    return spec.DRIVE_MSGS / _best_cpu(run)


def drive_codec(seed: int) -> Dict[str, float]:
    """Mean encode / decode µs and frame bytes over every wire class."""
    from repro import wire_codec

    messages = wire_instances(seed)
    frames = [wire_codec.encode_frame(7, m) for m in messages]
    for message, frame in zip(messages, frames):
        if wire_codec.decode_frame(frame) != (7, message):
            raise RuntimeError(f"codec round trip changed {message!r}")
    rounds = spec.DRIVE_CODEC_ROUNDS
    ops = rounds * len(messages)

    def encode() -> None:
        for _ in range(rounds):
            for m in messages:
                wire_codec.encode_frame(7, m)

    def decode() -> None:
        for _ in range(rounds):
            for f in frames:
                wire_codec.decode_frame(f)

    return {
        "wire_codec.encode_us": _best_cpu(encode) / ops * 1e6,
        "wire_codec.decode_us": _best_cpu(decode) / ops * 1e6,
        "wire_codec.frame_bytes": sum(len(f) for f in frames) / len(frames),
    }


def base_metrics(seed: int, spans: Spans) -> Dict[str, float]:
    """Every per-layer name at 0 (= layer not run by the workload), with
    every drive's reading filled in, each drive under its own span."""
    out: Dict[str, float] = {key: 0.0 for key in spec.PER_LAYER}
    with spans.span("drive.sim.engine"):
        out["sim.engine.drive_events_per_s"] = drive_engine()
    with spans.span("drive.sim.network"):
        out["sim.network.drive_msgs_per_s"] = drive_network(seed)
    with spans.span("drive.wire_codec"):
        out.update(drive_codec(seed))
    return out
