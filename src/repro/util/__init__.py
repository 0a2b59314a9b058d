"""Shared utilities: deterministic RNG plumbing, statistics, validation.

These helpers are deliberately dependency-light; every other subpackage
builds on them.  All randomness in the repository flows through
:mod:`repro.util.rng` so that experiments are reproducible from a single
integer seed.
"""

from repro.util.rng import SeedSequenceFactory, derive_seed, make_generator
from repro.util.stats import EmpiricalDistribution, histogram_density
from repro.util.validation import require

__all__ = [
    "EmpiricalDistribution",
    "SeedSequenceFactory",
    "derive_seed",
    "histogram_density",
    "make_generator",
    "require",
]
