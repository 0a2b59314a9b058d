"""Table 5 — practical bandwidth overhead of cross-checking + blaming.

Paper reference (300 PlanetLab nodes)::

    p_dcc              0        0.5      1
    674 kbps         1.07 %   4.53 %   8.01 %
    1082 kbps        0.69 %   3.51 %   5.04 %
    2036 kbps        0.38 %   1.69 %   2.76 %

Structural facts that must reproduce: overhead grows with p_dcc but is
non-zero at p_dcc = 0 (acks are always sent), and *decreases* with the
stream rate (verification traffic scales with the gossip rate, not the
payload).  Our simulator's wrongful-blame traffic is heavier than the
paper's deployment, so absolute percentages run higher by a factor ≈ 2.
"""

import pytest

from benchmarks.conftest import full_scale, record_report
from repro import run_scenario
from repro.experiments.table5 import PAPER_OVERHEAD_PERCENT


@pytest.fixture(scope="module")
def table5_result():
    n = 150 if full_scale() else 80
    duration = 15.0 if full_scale() else 10.0
    result = run_scenario("table5", n=n, duration=duration).artifact
    lines = [
        f"cross-checking and blaming overhead (n={n}, {duration:.0f}s)",
        "",
        "  rate(kbps)  p_dcc   measured   paper",
    ]
    for rate, p_dcc, measured, paper in result.rows():
        lines.append(f"  {rate:9.0f}   {p_dcc:4.1f}   {measured:6.2f}%   {paper:5.2f}%")
    record_report("table5_bandwidth_overhead", "\n".join(lines))
    return result


def test_table5_overhead_shape(table5_result, benchmark):
    benchmark(lambda: table5_result.percent(674.0, 1.0))

    for rate in (674.0, 1082.0, 2036.0):
        # Monotone in p_dcc; non-zero at p_dcc = 0.
        p0 = table5_result.percent(rate, 0.0)
        p5 = table5_result.percent(rate, 0.5)
        p1 = table5_result.percent(rate, 1.0)
        assert 0 < p0 < p5 < p1
    for p_dcc in (0.0, 0.5, 1.0):
        # Overhead decreases with the stream rate.
        assert (
            table5_result.percent(674.0, p_dcc)
            > table5_result.percent(1082.0, p_dcc)
            > table5_result.percent(2036.0, p_dcc)
        )
    # Within ~3x of the paper's absolute numbers across the grid.
    for (rate, p_dcc), paper in PAPER_OVERHEAD_PERCENT.items():
        measured = table5_result.percent(rate, p_dcc)
        assert measured < 3.5 * paper + 1.5
