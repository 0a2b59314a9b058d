"""Figure 10 — impact of message losses on honest scores.

Paper reference: n = 10,000 honest nodes, one gossip period, p_dcc = 1,
p_l = 7 %, f = 12, |R| = 4; scores compensated by -b̃ = -72.95; observed
mean < 0.01, experimental σ(b) = 25.6.
"""

import numpy as np
import pytest

from benchmarks.conftest import full_scale, record_report
from repro import run_scenario
from repro.config import analysis_params
from repro.mc.blame_model import BlameModel
from repro.util.rng import make_generator


@pytest.fixture(scope="module")
def fig10_result():
    n = 10_000 if not full_scale() else 50_000
    result = run_scenario("fig10", n=n, seed=11).artifact
    lines = [
        f"n={n} honest nodes, one gossip period, p_dcc=1, p_l=7%, f=12, |R|=4",
        f"compensation -b~            paper: 72.95   measured: {result.compensation:.2f}",
        f"mean compensated score      paper: ~0      measured: {result.mean:+.3f}",
        f"stddev of scores sigma(b)   paper: 25.6    measured: {result.stddev:.2f}",
        "",
        "score pdf (fraction of nodes per bin):",
    ]
    centers, fractions = result.pdf(bins=20)
    for center, fraction in zip(centers, fractions):
        bar = "#" * int(400 * fraction)
        lines.append(f"  {center:8.1f}  {fraction:6.4f} {bar}")
    record_report("fig10_wrongful_blames", "\n".join(lines))
    return result


def test_fig10_compensation_centers_scores(fig10_result, benchmark):
    gossip, lifting = analysis_params()
    model = BlameModel(gossip.fanout, gossip.request_size, lifting.p_reception)
    rng = make_generator(99, "bench-fig10")

    benchmark(lambda: model.sample_period_blames(rng, 10_000))

    assert abs(fig10_result.mean) < 0.75
    assert 15.0 < fig10_result.stddev < 28.0
    assert fig10_result.compensation == pytest.approx(72.95, abs=0.01)
