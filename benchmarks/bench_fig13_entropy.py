"""Figure 13 — entropy of nodes' histories under full membership.

Paper reference: n_h·f = 600 partner picks at n = 10,000; fanout
entropy observed in [9.11, 9.21] (max log2 600 = 9.23), fanin in
[8.98, 9.34]; γ = 8.95 gives negligible false expulsions.
"""

import numpy as np
import pytest

from benchmarks.conftest import record_report
from repro import run_scenario
from repro.mc.entropy import sample_fanout_entropies
from repro.util.rng import make_generator


@pytest.fixture(scope="module")
def fig13_result():
    result = run_scenario("fig13", n=10_000, seed=19).artifact
    fo_lo, fo_hi = result.fanout_range
    fi_lo, fi_hi = result.fanin_range
    lines = [
        "history entropies at n=10,000, n_h f = 600, full membership",
        f"max fanout entropy log2(600):  paper 9.23   measured {result.max_entropy:.2f}",
        f"fanout entropy range:          paper [9.11, 9.21]   measured [{fo_lo:.2f}, {fo_hi:.2f}]",
        f"fanin  entropy range:          paper [8.98, 9.34]   measured [{fi_lo:.2f}, {fi_hi:.2f}]",
        f"fanout histories below gamma=8.95: {result.fanout_false_expulsions:.4%}  (paper: negligible)",
        f"fanin  histories below gamma=8.95: {result.fanin_false_expulsions:.4%}  (paper: negligible)",
        f"mean fanin size: {result.fanin_sizes.mean():.1f}  (paper: n_h f = 600 on average)",
    ]
    record_report("fig13_entropy", "\n".join(lines))
    return result


def test_fig13_entropy_distributions(fig13_result, benchmark):
    rng = make_generator(5, "bench-fig13")
    benchmark(lambda: sample_fanout_entropies(rng, 10_000, 600, n_samples=500))

    fo_lo, fo_hi = fig13_result.fanout_range
    assert fo_lo == pytest.approx(9.11, abs=0.03)
    assert fo_hi == pytest.approx(9.21, abs=0.03)
    fi_lo, fi_hi = fig13_result.fanin_range
    assert fi_lo == pytest.approx(8.98, abs=0.08)
    assert fi_hi == pytest.approx(9.34, abs=0.08)
    assert fig13_result.fanout_false_expulsions == 0.0
    assert fig13_result.fanin_false_expulsions < 0.002
    assert fig13_result.fanin_sizes.mean() == pytest.approx(600, rel=0.02)
