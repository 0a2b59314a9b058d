"""Figure 11 — normalised scores with 1,000 freeriders Δ=(0.1,0.1,0.1).

Paper reference: two disjoint score modes separated by a gap after
r = 50 periods; η = -9.75 catches essentially all freeriders with
< 1 % false positives.
"""

import numpy as np
import pytest

from benchmarks.conftest import full_scale, record_report
from repro import run_scenario


@pytest.fixture(scope="module")
def fig11_result():
    n = 10_000
    result = run_scenario(
        "fig11", n=n, freeriders=1_000, rounds=50, delta=0.1, seed=13
    ).artifact
    hx, hf, fx, ff = result.cdf_series()
    lines = [
        "n=10,000 (1,000 freeriders Δ=(0.1,0.1,0.1)), r=50 periods, eta=-9.75",
        f"gap between modes (honest p1 - freerider p99):  {result.gap:+.2f}  (paper: positive gap)",
        f"detection alpha at eta:        measured {result.detection:.3f}   (paper: ~1.0 at delta=0.1)",
        f"false positives beta at eta:   measured {result.false_positives:.4f} (paper: < 0.01)",
        f"honest scores:    mean {np.mean(result.sample.honest):+.2f}  range [{hx[0]:.1f}, {hx[-1]:.1f}]",
        f"freerider scores: mean {np.mean(result.sample.freeriders):+.2f}  range [{fx[0]:.1f}, {fx[-1]:.1f}]",
        "",
        "cdf landmarks (score: honest-fraction / freerider-fraction below):",
    ]
    for threshold in (-50, -40, -30, -20, -10, -5, 0, 5, 10):
        hfrac = float(np.mean(result.sample.honest <= threshold))
        ffrac = float(np.mean(result.sample.freeriders <= threshold))
        lines.append(f"  {threshold:+4d}: {hfrac:6.3f} / {ffrac:6.3f}")
    record_report("fig11_score_distribution", "\n".join(lines))
    return result


def test_fig11_two_modes_and_thresholds(fig11_result, benchmark):
    benchmark(
        lambda: fig11_result.sample.detection_fraction(-9.75)
    )
    assert fig11_result.gap > 0
    assert fig11_result.detection > 0.99
    assert fig11_result.false_positives < 0.01
