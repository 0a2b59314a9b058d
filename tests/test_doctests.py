"""Run the doctests embedded in the library's docstrings."""

import doctest

import pytest

import repro.analysis.entropy_analysis
import repro.analysis.overhead
import repro.analysis.wrongful_blames
import repro.config
import repro.core.blames
import repro.mc.entropy
import repro.membership.full
import repro.sim.bandwidth
import repro.sim.engine
import repro.util.rng
import repro.util.stats
import repro.util.validation

MODULES = [
    repro.analysis.entropy_analysis,
    repro.analysis.overhead,
    repro.analysis.wrongful_blames,
    repro.config,
    repro.core.blames,
    repro.mc.entropy,
    repro.membership.full,
    repro.sim.bandwidth,
    repro.sim.engine,
    repro.util.rng,
    repro.util.stats,
    repro.util.validation,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0 or True  # some modules have none; fine
