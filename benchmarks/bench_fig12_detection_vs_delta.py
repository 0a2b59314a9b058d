"""Figure 12 — detection probability and bandwidth gain vs δ.

Paper landmarks: δ=0.05 → α≈65 %; δ≥0.1 → α>99 %; a 10 % bandwidth
gain (δ≈0.035, FlightPath's rationality threshold) is detected ~50 %
of the time.
"""

import numpy as np
import pytest

from benchmarks.conftest import full_scale, record_report
from repro import run_scenario


@pytest.fixture(scope="module")
def fig12_result():
    samples = 6_000 if full_scale() else 3_000
    result = run_scenario("fig12", rounds=50, samples_per_point=samples, seed=17).artifact
    lines = [
        "delta sweep, r=50 periods, eta=-9.75 (analysis parameters)",
        "   delta   detection(alpha)   gain      [paper: alpha(0.05)~0.65, alpha(0.1)>0.99]",
    ]
    for delta, alpha, gain in result.rows():
        lines.append(f"   {delta:5.3f}   {alpha:8.3f}          {gain:5.3f}")
    lines += [
        "",
        f"alpha at delta=0.035 (10% gain): measured {result.detection_at(0.035):.2f}  paper ~0.50",
        f"alpha at delta=0.05:             measured {result.detection_at(0.05):.2f}  paper ~0.65",
        f"alpha at delta=0.10:             measured {result.detection_at(0.10):.2f}  paper >0.99",
        f"delta for 10% gain:              measured {result.delta_for_gain(0.10):.3f} paper ~0.035",
    ]
    record_report("fig12_detection_vs_delta", "\n".join(lines))
    return result


def test_fig12_detection_curve(fig12_result, benchmark):
    benchmark(lambda: fig12_result.detection_at(0.05))
    # Shape: monotone, moderate in the wise region, saturated past 0.1.
    assert list(fig12_result.detection) == sorted(fig12_result.detection)
    assert 0.1 < fig12_result.detection_at(0.035) < 0.95
    assert fig12_result.detection_at(0.10) > 0.99
    assert fig12_result.delta_for_gain(0.10) == pytest.approx(0.035, abs=0.003)
    # False positives stay bounded at the fixed threshold.
    assert max(fig12_result.false_positives) < 0.01
