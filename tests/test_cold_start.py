"""Cold-start import budget: the entry points, a populated registry, a
store-backed sweep and a count-engine run below its leap threshold load
none of networkx, numpy and scipy.  Each loads on first use instead: a
graph built or tested, a count-engine leap, a power-law fit.

The check runs in a fresh interpreter because pytest's own session has
already imported all three libraries.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    import tempfile

    import repro
    import repro.analysis.runner
    import repro.cli
    import repro.core.simulator
    import repro.processes.analytics
    import repro.service.api
    import repro.service.client
    import repro.service.store
    from repro.analysis import fit_power_law
    from repro.analysis.runner import ExperimentSpec, Runner
    from repro.core.simulator import make_engine
    from repro.processes import OneWayEpidemic
    from repro.protocols import registry
    from repro.service.store import ResultStore


    def loaded():
        return [m for m in ("networkx", "numpy", "scipy") if m in sys.modules]


    registry.ensure_populated()
    spec = ExperimentSpec(protocol="simple-global-line", sizes=(30,), trials=2)
    with tempfile.TemporaryDirectory() as store_dir:
        Runner(cache=ResultStore(store_dir)).run(spec)
        Runner(cache=ResultStore(store_dir)).run(spec)
    # n = 200 is below the count engine's leap threshold: no numpy draw.
    result = make_engine("count", seed=1).run(OneWayEpidemic(), 200)
    report = {"cold": loaded()}
    result.config.output_graph()
    report["after_graph"] = loaded()
    report["exponent"] = fit_power_law([2, 4, 8], [4.0, 16.0, 64.0]).exponent
    report["after_fit"] = loaded()
    print(json.dumps(report))
    """
)


def test_entry_points_load_no_heavy_library_until_used():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["cold"] == [], f"loaded before first use: {report['cold']}"
    assert "networkx" in report["after_graph"]
    assert report["exponent"] == pytest.approx(2.0)
    assert "scipy" in report["after_fit"]
