"""The three robustness sweeps — ``churn``, ``coalition``, ``sybil_blame``.

They share one cell runner and one outcome vocabulary, so each is
pinned at its smoke size (seed 3): ``churn``'s whole reduced dict, and
the two adversary sweeps in the keys all three report.
"""

import pytest

from repro.scenarios import get, run_scenario


def smoke(name):
    return run_scenario(name, **get(name).smoke).metrics


#: what every sweep reduces to, and what every cell of it reports.
REDUCED = ("wrongful_expulsion_rate", "freeriders_expelled",
           "max_wrongful_expulsion_rate", "invariant_violations")
PER_CELL = ("invariant_checks", "invariant_violations", "expelled", "wrongful_expulsions",
            "wrongful_expulsion_rate", "freeriders_expelled", "freeriders")


def shared(metrics, axis):
    return (
        {key: metrics[key] for key in (axis, *REDUCED)},
        [{key: cell[key] for key in PER_CELL} for cell in metrics["sweep"]],
    )


def test_churn_smoke_metrics_are_pinned():
    assert smoke("churn") == {
        "rates": (0.3,),
        "wrongful_expulsion_rate": {"0.3": 0.0},
        "freeriders_expelled": {"0.3": 0},
        "max_wrongful_expulsion_rate": 0.0,
        "mean_detection_delay": None,
        "mean_recovery_delay": pytest.approx(0.24139314656120425, rel=1e-12),
        "invariant_violations": 0,
        "sweep": ({
            "crashes": 6, "restarts": 4, "leaves": 0, "rejoins": 0,
            "rejoins_refused": 0, "suspicions": 6, "refutations": 4,
            "confirmed_dead": 0, "readmissions": 0,
            "mean_detection_delay": None, "max_detection_delay": None,
            "mean_recovery_delay": pytest.approx(0.24139314656120425, rel=1e-12),
            "max_recovery_delay": pytest.approx(0.410899556084356, rel=1e-12),
            "suspected_now": 2, "quarantines_started": 133,
            "quarantines_discarded": 84, "quarantines_released": 1,
            "records_in_quarantine": 48, "quarantined_events_pending": 446,
            "probes_sent": 356, "indirect_probes": 62, "local_suspicions": 9,
            "local_refutations": 0,
            "invariant_checks": 9, "invariant_violations": 0,
            "rate": 0.3, "victims": 6,
            "expelled": (), "wrongful_expulsions": (),
            "wrongful_expulsion_rate": 0.0,
            "freeriders_expelled": 0, "freeriders": 4,
        },),
    }


def test_coalition_smoke_metrics_are_pinned():
    metrics = smoke("coalition")
    assert shared(metrics, "sizes") == (
        {
            "sizes": (3,),
            "wrongful_expulsion_rate": {"3": 0.0},
            "freeriders_expelled": {"3": 3},
            "max_wrongful_expulsion_rate": 0.0,
            "invariant_violations": 0,
        },
        [{
            "invariant_checks": 13, "invariant_violations": 0,
            "expelled": (10, 11, 20), "wrongful_expulsions": (),
            "wrongful_expulsion_rate": 0.0,
            "freeriders_expelled": 3, "freeriders": 3,
        }],
    )
    assert metrics["max_escape_rate"] == 0.0
    assert metrics["sweep"][0]["credits_laundered"] == 144.0


def test_sybil_blame_smoke_metrics_are_pinned():
    metrics = smoke("sybil_blame")
    assert shared(metrics, "rates") == (
        {
            "rates": (1.0,),
            "wrongful_expulsion_rate": {"1": 0.0},
            "freeriders_expelled": {"1": 4},
            "max_wrongful_expulsion_rate": 0.0,
            "invariant_violations": 0,
        },
        [{
            "invariant_checks": 13, "invariant_violations": 0,
            "expelled": (4, 10, 11, 20), "wrongful_expulsions": (),
            "wrongful_expulsion_rate": 0.0,
            "freeriders_expelled": 4, "freeriders": 4,
        }],
    )
    assert metrics["min_victim_score"] == pytest.approx(-0.972, rel=1e-12)
    assert metrics["sweep"][0]["blames_stuffed"] == 120.0
