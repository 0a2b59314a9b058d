"""Open-loop load generation and latency observability for the live plane.

This package measures what the asyncio runtime actually sustains: a
deterministic constant-arrival-rate (open-loop) frame schedule is driven
through a live :class:`~repro.runtime.transport.AsyncTransport` node,
per-stage latencies (socket→queue, queue wait, dispatch) are
recorded into mergeable log-linear histograms, and a knee detector steps
the offered rate until goodput stops tracking it.  See
``docs/LOADGEN.md`` for the methodology (open- vs closed-loop load,
coordinated omission, what "the knee" means) and the ``loadgen``
scenario (``repro run loadgen``) for the packaged sweep.

* :mod:`repro.loadgen.histogram` — fixed-bucket log-linear latency
  histogram: O(1) record, mergeable across workers, stdlib only.
* :mod:`repro.loadgen.schedule` — seeded, rate-stepped open-loop
  arrival schedules (uniform or Poisson arrivals).
* :mod:`repro.loadgen.probe` — the stage-timestamp probe the transport
  hooks call; owns the per-phase per-stage histograms.
* :mod:`repro.loadgen.driver` — the open-loop generator coroutine and
  its :class:`~repro.loadgen.driver.LoadProfile` configuration.
* :mod:`repro.loadgen.knee` — goodput-vs-offered knee detection.
"""

from repro.loadgen.driver import LOADGEN_ID, LoadGenerator, LoadProfile
from repro.loadgen.histogram import LatencyHistogram
from repro.loadgen.knee import KneeReport, detect_knee
from repro.loadgen.probe import STAGES, StageProbe
from repro.loadgen.schedule import ArrivalSchedule, Phase, RateStep, rate_ladder

__all__ = [
    "ArrivalSchedule",
    "KneeReport",
    "LOADGEN_ID",
    "LatencyHistogram",
    "LoadGenerator",
    "LoadProfile",
    "Phase",
    "RateStep",
    "STAGES",
    "StageProbe",
    "detect_knee",
    "rate_ladder",
]
