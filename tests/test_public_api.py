"""The public API surface advertised in the README must exist and work."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_setup_py_carries_the_package_metadata(self):
        # ``pip install -e .`` reads this; nothing is built or downloaded.
        root = Path(__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.split() == ["repro", repro.__version__]

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestQuickstart:
    def test_readme_quickstart_runs(self):
        from dataclasses import replace

        from repro import ClusterConfig, SimCluster, planetlab_params

        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=30, fanout=4)
        cluster = SimCluster(
            ClusterConfig(
                gossip=gossip, lifting=lifting, freerider_fraction=0.1, seed=1
            )
        )
        cluster.run(until=5.0)
        summary = cluster.detection().summary()
        assert "detection" in summary

    def test_paper_constants_reachable_from_top_level(self):
        assert repro.expected_blame_honest(12, 4, 0.93) == pytest.approx(72.95, abs=0.01)
        assert repro.max_bias_probability(8.95, 25, 600) == pytest.approx(0.21, abs=0.01)

    def test_params_factories(self):
        gossip, lifting = repro.analysis_params()
        assert gossip.n == 10_000 and gossip.fanout == 12
        gossip, lifting = repro.planetlab_params()
        assert gossip.n == 300 and gossip.fanout == 7 and lifting.managers == 25


class TestImportCost:
    """What a process pays before its first event (docs/PERFORMANCE.md)."""

    def test_product_surfaces_load_no_scipy(self):
        # scipy is imported only inside the two Eq. 7 root finders and
        # calibration's normal quantile; a module-level import would add
        # ~44 MiB and ~0.7 s to every process, the live plane's included.
        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "import sys\n"
            "import repro, repro.sim, repro.runtime, repro.loadgen\n"
            "import repro.wire, repro.wire_codec, repro.scenarios\n"
            "repro.scenarios.load_builtins()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.strip() == "[]"

    def test_sim_plane_loads_no_live_plane(self):
        # The job runner and the fault script live outside runtime/, so a
        # simulated run loads no event loop, socket, process pool or codec
        # (74 modules and ~5 MiB of every sim process).  After the run,
        # ``selectors`` is there for subprocess: the provenance's git call.
        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "import sys\n"
            "LIVE = ('asyncio', 'selectors', 'socket', 'ssl', 'multiprocessing',\n"
            "        'concurrent', 'repro.runtime', 'repro.loadgen', 'repro.wire_codec')\n"
            "import repro\n"
            "from repro.scenarios import get, load_builtins, run_scenario\n"
            "load_builtins()\n"
            "print(sorted(m for m in LIVE if m in sys.modules))\n"
            "run_scenario('churn', **get('churn').smoke)\n"
            "print(sorted(m for m in LIVE if m in sys.modules and m != 'selectors'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.split("\n")[:2] == ["[]", "[]"]

    def test_deferred_brentq_gives_the_same_roots(self):
        from repro.analysis.entropy_analysis import achievable_max_bias

        assert repr(repro.max_bias_probability(8.95, 25, 600)) == "0.2134082047896237"
        assert repr(achievable_max_bias(8.95, 25, 600)) == "0.15049168782803246"
