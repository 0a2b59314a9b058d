"""A call budget for the propose → request → serve → ack → confirm chain.

Machine-independent cost witness, one level above the codec's
``TestCallBudget``: an all-honest deployment with the perf ledger's
steady parameters is profiled over a warm window, and the profile must
show the handler chain paying per protocol message, not per chunk or
per hop.  Counts come from ``Profile.getstats()``, whose entries are
keyed by code object — ``pstats`` keys by ``(file, line, name)`` and
folds every dataclass-generated ``__init__`` into one row.
"""

import cProfile
from dataclasses import replace

import pytest

from repro import ClusterConfig, SimCluster, planetlab_params

#: profiled calls per fired event over the window: 5.11 measured with a
#: witness answer paying for its events only (a confirm booked with ``+=``,
#: the answer an interned ``ConfirmResponse``, an ack's p_dcc draw the
#: generator's own bound ``random``), 5.52 with the handlers below making
#: no lookup calls (``in`` + subscript for
#: ``dict.get``, a confirm round dropping each answering witness from the
#: set it still waits on, the sampler's Fisher–Yates kept off the shared
#: array), 6.49 with the history keeping each received proposal's own
#: tuple (6.62 with a fresh set per proposer and period), the per-message
#: behaviour hooks bound once, the history's open-period logs extended by
#: the node and confirm rounds filed per proposer (7.33 with a hook frame
#: per message, 7.53 with the engine's window table, 8.05 with the confirm
#: index, 9.24 with the per-chunk chain).
MEASURED_CALLS_PER_EVENT = 5.11
BUDGET_CALLS_PER_EVENT = MEASURED_CALLS_PER_EVENT * 1.05


def qualified(code):
    """A profile entry's code as a name (built-ins arrive as strings)."""
    return code if isinstance(code, str) else code.co_qualname


@pytest.fixture(scope="module")
def profiled():
    """``(getstats() entries, events fired)`` over t in [2, 4]."""
    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=24, fanout=5, source_fanout=5)
    lifting = replace(lifting, managers=10, p_dcc=1.0)
    cluster = SimCluster(ClusterConfig(gossip=gossip, lifting=lifting, seed=1))
    cluster.run(until=2.0)
    fired = cluster.sim.events_processed
    profile = cProfile.Profile()
    profile.enable()
    cluster.run(until=4.0)
    profile.disable()
    return profile.getstats(), cluster.sim.events_processed - fired


def callees(entries, name):
    """``{callee: calls}`` of the profiled function ``name`` (which ran)."""
    (entry,) = [e for e in entries if qualified(e.code) == name]
    assert entry.callcount > 0
    return {qualified(callee.code): callee.callcount for callee in entry.calls or ()}


@pytest.fixture(scope="module")
def window(profiled):
    """``(calls per qualified name, events fired)`` over the window."""
    entries, events = profiled
    calls = {}
    for entry in entries:
        name = qualified(entry.code)
        if "disable" not in name:
            calls[name] = calls.get(name, 0) + entry.callcount
    return calls, events


class TestProtocolCallBudget:
    def test_calls_per_event_within_budget(self, window):
        calls, events = window
        assert events > 5_000
        assert sum(calls.values()) / events <= BUDGET_CALLS_PER_EVENT

    def test_engine_hears_of_a_served_request_once(self, window):
        calls, _events = window
        assert 0 < calls["VerificationEngine.on_serve_sent"] <= calls["GossipNode._on_request"]

    @pytest.mark.parametrize(
        "hook",
        [
            "Behavior.confirm_answer",
            "Behavior.serve_filter",
            "Behavior.serve_origin",
            "Behavior.should_blame",
        ],
    )
    def test_an_honest_node_calls_no_per_message_hook(self, window, hook):
        calls, _events = window
        assert calls["GossipNode._answer_confirm"] > 0
        assert hook not in calls

    def test_a_confirm_is_booked_with_no_call(self, profiled):
        entries, _events = profiled
        (handler,) = [e for e in entries if qualified(e.code) == "GossipNode._on_confirm"]
        assert callees(entries, "GossipNode._on_confirm") == {
            "Simulator.call_later": handler.callcount,
        }

    def test_an_answer_builds_no_confirm_response(self, profiled):
        # Both answers about each of the 24 proposers are interned
        # during the warm-up, so the window only looks them up.
        entries, _events = profiled
        (handler,) = [e for e in entries if qualified(e.code) == "GossipNode._answer_confirm"]
        assert callees(entries, "GossipNode._answer_confirm") == {
            "LocalHistory.was_proposed_by": handler.callcount,
            "Network.send_many": handler.callcount,
        }

    def test_an_ack_enters_no_random_frame(self, window):
        calls, _events = window
        assert calls["VerificationEngine.on_ack"] > 0
        assert "GossipNode.random" not in calls

    def test_a_confirm_response_makes_no_call(self, profiled):
        entries, _events = profiled
        assert callees(entries, "VerificationEngine.on_confirm_response") == {}

    @pytest.mark.parametrize(
        "handler",
        [
            "GossipNode._on_serve",
            "GossipNode._close_window",
            "GossipNode._on_request",
            "GossipNode._propose_phase",
            "VerificationEngine.on_serve_sent",
            "VerificationEngine.on_ack",
            "ManagerAssignment.managers_of",
        ],
    )
    def test_no_dict_get_per_message(self, profiled, handler):
        entries, _events = profiled
        assert "<method 'get' of 'dict' objects>" not in callees(entries, handler)

    def test_sampling_appends_nothing(self, profiled):
        entries, _events = profiled
        assert "<method 'append' of 'list' objects>" not in callees(
            entries, "FullMembership.sample"
        )

    @pytest.mark.parametrize(
        "frame",
        [
            "Behavior.witness_valid",
            "ChunkStore.size_of",
            "GossipNode.send",
            "LocalHistory.record_confirm_sender",
            "LocalHistory.record_fanin",
            "SimTransport.clock",
        ],
    )
    def test_no_per_hop_wrapper_frames(self, window, frame):
        calls, _events = window
        assert frame not in calls
