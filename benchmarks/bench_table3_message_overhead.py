"""Table 3 — message overhead of the verifications.

Paper reference (per node per gossip period): direct verification sends
0 messages; cross-checking costs O(p_dcc·f²) confirms for the verifier,
O(p_dcc·f) acks around the inspected node and O(p_dcc·f²) responses per
witness; blames are bounded by O(M·f).  The protocol itself sends
f(2+|R|).  We measure actual per-node-per-period counts and check the
O(f²) scaling of the confirm traffic.
"""

import math

import pytest

from benchmarks.conftest import full_scale, record_report
from repro import run_scenario


@pytest.fixture(scope="module")
def table3_result():
    n = 200 if full_scale() else 80
    result = run_scenario("table3", n=n, duration=12.0, fanout_sweep=(4, 6, 8)).artifact
    model = result.model
    lines = [
        f"per-node per-period message counts (n={n}, f=7, |R|=4, p_dcc=1, M=25)",
        "",
        "kind               measured   model-bound  note",
        f"Propose            {result.row('Propose'):8.2f}   {model.proposals:8.1f}     f proposals",
        f"Request            {result.row('Request'):8.2f}   {model.requests:8.1f}     <= f (dedup)",
        f"Serve              {result.row('Serve'):8.2f}   {model.serves:8.1f}     <= f|R|",
        f"Ack                {result.row('Ack'):8.2f}   {model.acks:8.1f}     <= f",
        f"Confirm            {result.row('Confirm'):8.2f}   {model.confirms_sent:8.1f}     <= p_dcc f^2",
        f"ConfirmResponse    {result.row('ConfirmResponse'):8.2f}   {model.confirm_responses_sent:8.1f}     <= p_dcc f^2",
        f"Blame              {result.row('Blame'):8.2f}   {model.max_blame_messages:8.1f}     <= (1+p_dcc) M f",
        "",
        "fanout sweep of Confirm traffic (expect superlinear, ~O(f^2)):",
    ]
    for fanout, confirms in result.fanout_sweep:
        lines.append(f"  f={fanout}: {confirms:7.2f} confirms/node/period")
    lines.append(
        f"log-log slope: {result.confirm_scaling_slope:.2f} (paper model: 2.0; "
        "interaction saturation flattens it slightly)"
    )
    record_report("table3_message_overhead", "\n".join(lines))
    return result


def test_table3_counts_within_model_bounds(table3_result, benchmark):
    benchmark(lambda: table3_result.row("Confirm"))
    model = table3_result.model
    assert table3_result.row("Confirm") <= model.confirms_sent * 1.1
    assert table3_result.row("ConfirmResponse") <= model.confirm_responses_sent * 1.1
    assert table3_result.row("Ack") <= model.acks * 1.1
    assert table3_result.row("Blame") <= model.max_blame_messages
    assert table3_result.row("Serve") <= model.serves * 1.5
    # Verification traffic exists at all.
    assert table3_result.row("Confirm") > 1.0


def test_table3_confirms_scale_superlinearly(table3_result, benchmark):
    benchmark(lambda: table3_result.confirm_scaling_slope)
    assert 1.2 <= table3_result.confirm_scaling_slope <= 2.5
