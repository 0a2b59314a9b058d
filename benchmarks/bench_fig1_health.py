"""Figure 1 — system efficiency in the presence of freeriders.

Paper reference (300 PlanetLab nodes, 674 kbps, 25 % freeriders): the
baseline and the LiFTinG-protected deployments deliver a clear stream to
(almost) all nodes at small lags, while without LiFTinG the freeriders
collapse dissemination (curve shifted right and capped well below 1).
"""

import pytest

from benchmarks.conftest import full_scale, record_report
from repro import run_scenario


@pytest.fixture(scope="module")
def fig1_result():
    if full_scale():
        result = run_scenario("fig1", n=300, duration=60.0).artifact
    else:
        result = run_scenario("fig1", n=120, duration=25.0).artifact
    lines = [
        "fraction of nodes viewing a clear stream vs stream lag",
        "(paper: no-LiFTinG curve collapses; LiFTinG curve tracks the baseline)",
        f"expelled in the LiFTinG run: {result.expelled_with_lifting}",
        "",
        "  lag(s)   baseline   25%-freeriders    25%-freeriders+LiFTinG",
    ]
    for lag, base, collapse, protected in result.rows():
        if lag in (0, 1, 2, 3, 4, 5, 7, 10, 15, 20, 25, 30):
            lines.append(
                f"  {lag:5.0f}    {base:7.2f}    {collapse:12.2f}    {protected:18.2f}"
            )
    healthy_lag = 5.0
    lines += [
        "",
        f"at lag {healthy_lag:.0f}s: baseline {result.baseline.fraction_at(healthy_lag):.2f}, "
        f"no-LiFTinG {result.freeriders_no_lifting.fraction_at(healthy_lag):.2f}, "
        f"LiFTinG {result.freeriders_with_lifting.fraction_at(healthy_lag):.2f}",
    ]
    record_report("fig1_health", "\n".join(lines))
    return result


def test_fig1_lifting_restores_health(fig1_result, benchmark):
    benchmark(lambda: fig1_result.baseline.fraction_at(5.0))

    lag = 5.0
    baseline = fig1_result.baseline.fraction_at(lag)
    collapsed = fig1_result.freeriders_no_lifting.fraction_at(lag)
    protected = fig1_result.freeriders_with_lifting.fraction_at(lag)
    # Who wins and by what factor: baseline ≈ protected >> collapsed.
    assert baseline > 0.9
    assert collapsed < baseline - 0.1
    assert protected > collapsed
    assert protected > 0.85 * baseline
