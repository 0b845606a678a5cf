"""Golden seeded results of the indexed engine.

Every registered protocol runs at its conformance population under each
fault setting of :data:`FAULT_SETTINGS`, for each seed in :data:`SEEDS`,
with a 200 000-step budget.  The run's counters, its stop reason and a
sha256 of the canonical final configuration must equal the values in
``tests/data/golden_indexed.json``.  The fixture pins the engine's
seeded law: the order of its random draws, the insertion order of
``PairClassIndex.weights`` (which ``sample_class`` walks), the swap-remove
order of the node and edge buckets, and the order in which lazily interned
protocols assign state ids.  A change that only makes the engine faster
must leave every cell unchanged.

Regenerate the fixture only for a change that is meant to alter the
seeded law, and say so in the change::

    PYTHONPATH=src python tests/test_golden_seeded.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import SimulationError
from repro.core.scenario import Scenario
from repro.core.simulator import IndexedSimulator
from repro.protocols import registry
from repro.testing import conformance_population, conformance_specs

FIXTURE = Path(__file__).with_name("data") / "golden_indexed.json"

#: Seeds per cell (one keeps the registry-wide grid to about 10 s in tier-1).
SEEDS = (1,)

#: Step budget per run.
BUDGET = 200_000

#: Fault settings by label; each is a tuple of fault specs.
FAULT_SETTINGS: dict[str, tuple[str, ...]] = {
    "none": (),
    "crash": ("crash:count=1,at=40",),
    "arrive": ("arrive:count=2,at=40",),
    "edge-drop": ("edge-drop:rate=0.001",),
    "byzantine": ("byzantine:count=1,mode=replay,rate=0.01",),
    "churn": ("churn:rate=0.0005",),
    "crash-recover": ("crash:count=2,at=30", "recover:count=1,at=60,delay=20"),
    "edge-rate": ("edge-rate:rate=0.0001",),
}


def config_digest(config: Configuration) -> str:
    """sha256 of the states (by ``repr``, in node order) and the sorted
    active edge list.  ``signature()`` is not used: it holds frozensets,
    whose ``repr`` order is not fixed across processes."""
    states = [repr(config.state(u)) for u in range(config.n)]
    edges = sorted(config.active_edges())
    payload = json.dumps([states, edges], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def golden_cell(spec: str, setting: str, seed: int) -> dict:
    """One seeded run, reduced to the values the fixture stores.  A run
    the engine refuses (population events on a protocol without an
    ``initial_state``) stores the exception class instead."""
    protocol = registry.instantiate(spec)
    n = conformance_population(protocol)
    scenario = Scenario(faults=FAULT_SETTINGS[setting])
    sim = IndexedSimulator(seed=seed, faults=scenario.make_faults())
    try:
        result = sim.run(
            protocol, n, BUDGET, config=scenario.build_initial(protocol, n)
        )
    except SimulationError as exc:
        return {"n": n, "refused": type(exc).__name__}
    return {
        "n": n,
        "steps": result.steps,
        "effective_steps": result.effective_steps,
        "last_change_step": result.last_change_step,
        "last_output_change_step": result.last_output_change_step,
        "stop_reason": result.stop_reason,
        "config_sha256": config_digest(result.config),
    }


def cells(spec: str) -> dict[str, tuple[str, str, int]]:
    """Fixture key -> (spec, fault setting, seed) for one protocol."""
    return {
        f"{spec} | {setting} | seed={seed}": (spec, setting, seed)
        for setting in FAULT_SETTINGS
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_registry(golden):
    expected = {key for spec in conformance_specs() for key in cells(spec)}
    assert set(golden) == expected


@pytest.mark.parametrize("spec", conformance_specs())
def test_seeded_results_unchanged(golden, spec):
    mismatches = {}
    for key, cell in cells(spec).items():
        got = golden_cell(*cell)
        if got != golden[key]:
            mismatches[key] = {"golden": golden[key], "got": got}
    assert not mismatches, json.dumps(mismatches, indent=1)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_seeded.py --write")
    record = {
        key: golden_cell(*cell)
        for spec in conformance_specs()
        for key, cell in cells(spec).items()
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE}")
