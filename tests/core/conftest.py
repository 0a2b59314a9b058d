"""A controllable fake host for unit-testing the LiFTinG components."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import planetlab_params
from repro.sim.engine import Simulator


class FakeHost:
    """Implements the host facade the engine/auditor expect, recording
    every outbound action for assertions."""

    def __init__(self, gossip, lifting, node_id=0):
        self.node_id = node_id
        self.sim = Simulator()
        self.timeline = self.sim
        self.gossip = gossip
        self.lifting = lifting
        #: the plane under the node: the engine sends confirms through it.
        self.transport = SimpleNamespace(
            send_many=lambda _src, dsts, message, _kind: self.send_many(dsts, message)
        )
        self.sent = []  # (dst, message)
        self.blames = []  # (target, value, reason)
        self.verdicts = []  # (target, result)
        self.forced_random = None
        self._rng = np.random.default_rng(0)

    # --- facade -------------------------------------------------------
    def clock(self):
        return self.sim.now

    def call_later(self, delay, callback, *args):
        self.sim.call_later(delay, callback, *args)

    def random(self):
        if self.forced_random is not None:
            return self.forced_random
        return float(self._rng.random())

    def send(self, dst, message):
        self.sent.append((dst, message))
        return True

    def send_many(self, dsts, message):
        for dst in dsts:
            self.send(dst, message)
        return len(dsts)

    def send_blame(self, target, value, reason):
        self.blames.append((target, value, reason))

    def on_audit_verdict(self, target, result):
        self.verdicts.append((target, result))

    # --- helpers ------------------------------------------------------
    def blame_total(self, target):
        return sum(v for t, v, _r in self.blames if t == target)

    def sent_to(self, dst, kind=None):
        return [
            m
            for d, m in self.sent
            if d == dst and (kind is None or type(m).__name__ == kind)
        ]


@pytest.fixture
def fake_host():
    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=30, fanout=4)
    # γ is calibrated against the window size: the full window here is
    # n_h·f = 32 entries (max entropy log2 32 = 5 bits), so the audit
    # threshold sits a little below that — the same headroom the paper's
    # 8.95 leaves under log2(600) = 9.23.
    lifting = replace(lifting, managers=3, history_periods=8, gamma=4.5)
    return FakeHost(gossip, lifting)
