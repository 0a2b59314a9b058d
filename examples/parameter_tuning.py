#!/usr/bin/env python3
"""Scenario: tune LiFTinG's parameters from the closed-form analysis.

The paper's stance (§9): "a theoretical analysis ... allows system
designers to set its parameters to their optimal values".  This example
plays that designer through the ``analyze`` scenario: given a
deployment (f, |R|, loss rate, coalition size), it derives

* the compensation ``b̃`` (Eq. 5) and the blame a freerider of degree Δ
  should expect,
* the score threshold η bounds and grace period r for target α/β rates
  (Tchebychev bounds of §6.3.1), cross-validated against the
  Monte-Carlo engine,
* the entropy threshold γ and the history length n_h needed to cap the
  collusion bias (Eq. 7),
* the expected verification message budget (Table 3's model).

Run with::

    python examples/parameter_tuning.py

Equivalent CLI: ``repro run analyze --set mc-samples=100000``.
"""

from repro import run_scenario


def main() -> None:
    # --- the deployment the designer is planning -----------------------
    result = run_scenario(
        "analyze",
        fanout=12,
        request_size=4,
        loss=0.07,
        colluders=25,
        history=50,
        eta=-9.75,
        rounds=50,
        delta=0.1,
        mc_samples=100_000,
    )
    m = result.metrics

    print(f"deployment: f={m['fanout']}, |R|={m['request_size']}, "
          f"loss={m['loss']:.0%}")

    # --- blame calibration ---------------------------------------------
    print(f"\ncompensation b~ (Eq. 5):                 {m['compensation']:.2f} per period")
    excess_01 = m["blame_excess_by_delta"]["0.1"]
    print(f"freerider (delta=0.1) blame excess:      "
          f"{excess_01['excess_per_period']:.2f} per period "
          f"(gain {excess_01['bandwidth_gain']:.0%})")

    # --- thresholds from the Tchebychev bounds --------------------------
    mc = m["monte_carlo"]
    print(f"per-period blame stddev sigma(b):        {mc['sigma']:.2f} (MC)")
    print(f"beta bound at eta={mc['eta']}, r={mc['rounds']}:       "
          f"{mc['beta_bound']:.4f}")
    print(f"alpha bound for delta={mc['delta']:g}:               "
          f"{mc['alpha_bound']:.4f}")
    print(f"grace period for beta<=1% (Tchebychev):  "
          f"{mc['min_periods_beta_1pct']} periods")
    print(f"MC at r={mc['rounds']}: alpha={mc['alpha']:.3f}, "
          f"beta={mc['beta']:.4f} (bounds are loose, MC is exact)")

    # --- audit parameters ------------------------------------------------
    print(f"\naudit window n_h*f = {m['audit_window']}; gamma = {m['gamma']:.2f}")
    for coalition, ceiling in m["coalition_ceilings"].items():
        print(f"  coalition of {int(coalition):3d} can hide at most "
              f"{ceiling:.0%} bias")
    print(f"to cap a 25-node coalition at 15% bias, use n_h >= "
          f"{m['history_for_15pct_bias']}")

    # --- message budget ---------------------------------------------------
    budget = m["message_budget"]
    print("\nverification message budget per node-period (Table 3 model):")
    print(f"  data path:       {budget['data']:.0f}")
    print(f"  acks+confirms:   {budget['verification']:.0f}")
    print(f"  blame worst case: {budget['max_blames']:.0f}")
    print("\nlower p_dcc when the system is healthy: at p_dcc=0.25 the "
          f"confirm traffic drops to {budget['confirms_at_quarter_p_dcc']:.0f}")


if __name__ == "__main__":
    main()
