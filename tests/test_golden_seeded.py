"""Golden seeded results of the exact engines and the count engine's leap regime.

Every registered protocol runs at its conformance population, for each
seed in :data:`SEEDS`, on each engine of :data:`BUDGETS`.  The indexed
engine runs each fault setting of :data:`FAULT_SETTINGS` under the
uniform scheduler.  The sequential engine runs the same settings plus
each scheduler of :data:`SCHEDULERS` under each setting of
:data:`SCHEDULER_FAULTS`.  The run's counters, its stop reason and a
sha256 of the canonical final configuration must equal the values in
``tests/data/golden_<engine>.json``.

The fixtures pin each engine's seeded law.  For the indexed engine that
is the order of its random draws, the insertion order of
``PairClassIndex.weights`` (which ``sample_class`` walks), the
swap-remove order of the node and edge buckets, and the order in which
lazily interned protocols assign state ids.  For the sequential engine
it is the scheduler's pair stream, when it binds and rebinds, and the
draws of :func:`~repro.core.simulator.apply_interaction`.  A change that
only makes an engine faster or smaller must leave every cell unchanged.

The count engine's leap regime has its own fixture,
``tests/data/golden_count.json``: the cells of :data:`COUNT_CELLS`, each
an edge-free table above the leap threshold, so the census leap loop and
:meth:`~repro.core.configuration.Configuration.from_census` produce the
result.  Besides the fields above, a leap cell stores a sha256 of the
result's active edges in ``active_edges()`` iteration order, the digest
of an empty list on these tables.

The paper-scale fixture, ``tests/data/golden_scale.json``, holds long
indexed-engine runs at the sizes the benchmarks use (the cells of
:data:`SCALE_CELLS`): thousands of effective interactions per run, so
every memoized refresh plan of ``PairClassIndex`` is replayed many
times over.  Its cells store the fields of the conformance grids.

A protocol that declares its state set compiles once per instance, and
every run on that instance shares the compiled table and the indexed
engine's pair-class and plan memos on it.  The grids above build a
fresh instance per cell, so they only ever see a cold table; the
warm-table tests run the indexed grid on one instance per spec in
reverse fixture order, and the paper-scale cells on one instance per
label with the seeds reversed, against the same fixtures.

Regenerate the fixtures only for a change that is meant to alter the
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
from repro.core.scenario import DEFAULT_SCHEDULER, Scenario
from repro.core.simulator import make_engine
from repro.protocols import registry
from repro.testing import conformance_population, conformance_specs

DATA = Path(__file__).with_name("data")

#: Seeds per cell (one keeps the registry-wide grids to about 20 s in tier-1).
SEEDS = (1,)

#: Step budget per run, by engine.  The sequential engine walks every
#: step, so it gets a smaller budget.
BUDGETS = {"indexed": 200_000, "sequential": 20_000}

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

#: Non-uniform schedulers; only the sequential engine drives them.
SCHEDULERS = (
    "round-robin",
    "laggard:bias=0.8,lagged=0..1",
    "targeted:aim=leader",
    "targeted:aim=bridge",
)

#: Fault settings each of :data:`SCHEDULERS` runs under.
SCHEDULER_FAULTS = ("none", "crash")

#: Leap-regime cells of the count engine by label:
#: (spec, n, step budget, fault specs).
COUNT_CELLS: dict[str, tuple[str, int, int | None, tuple[str, ...]]] = {
    "one-way-epidemic | n=5000": ("one-way-epidemic", 5000, None, ()),
    "one-way-epidemic | n=30000": ("one-way-epidemic", 30000, None, ()),
    "node-cover | n=5000 | none": ("node-cover", 5000, 2_000_000, ()),
    "node-cover | n=5000 | crash": (
        "node-cover", 5000, 2_000_000, ("crash:count=50,at=20000",),
    ),
    "one-to-one-elimination | n=5000 | arrive": (
        "one-to-one-elimination", 5000, None, ("arrive:count=20,at=10000",),
    ),
}

#: Seeds per leap-regime cell.
COUNT_SEEDS = (1, 2)

#: Paper-scale indexed-engine cells by label: (spec, n, seeds).  Every
#: run stabilizes far inside :data:`SCALE_BUDGET`.
SCALE_CELLS: dict[str, tuple[str, int, tuple[int, ...]]] = {
    "simple-global-line | n=240": ("simple-global-line", 240, (1, 2, 3)),
    "fast-global-line | n=240": ("fast-global-line", 240, (1, 2, 3)),
    "faster-global-line | n=240": ("faster-global-line", 240, (1, 2, 3)),
    "global-ring | n=60": ("global-ring", 60, (1, 2, 3)),
    "2rc | n=16": ("2rc", 16, (1,)),
}

#: Step budget of a paper-scale cell.
SCALE_BUDGET = 10**10


def fixture_path(engine: str) -> Path:
    return DATA / f"golden_{engine}.json"


def config_digest(config: Configuration) -> str:
    """sha256 of the states (by ``repr``, in node order) and the sorted
    active edge list.  ``signature()`` is not used: it holds frozensets,
    whose ``repr`` order is not fixed across processes."""
    states = [repr(config.state(u)) for u in range(config.n)]
    edges = sorted(config.active_edges())
    payload = json.dumps([states, edges], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def golden_cell(
    engine: str, spec: str, scheduler: str, setting: str, seed: int,
    protocol=None,
) -> dict:
    """One seeded run, reduced to the values the fixture stores, on a
    fresh instance of ``spec`` unless ``protocol`` is given.  A run
    the engine refuses (population events on a protocol without an
    ``initial_state``) stores the exception class instead."""
    if protocol is None:
        protocol = registry.instantiate(spec)
    n = conformance_population(protocol)
    scenario = Scenario(scheduler=scheduler, faults=FAULT_SETTINGS[setting])
    sim = make_engine(engine, seed, scenario)
    try:
        result = sim.run(
            protocol, n, BUDGETS[engine],
            config=scenario.build_initial(protocol, n),
        )
    except SimulationError as exc:
        return {"n": n, "refused": type(exc).__name__}
    return result_fields(n, result)


def result_fields(n: int, result) -> dict:
    """The values a fixture cell stores for one finished run."""
    return {
        "n": n,
        "steps": result.steps,
        "effective_steps": result.effective_steps,
        "last_change_step": result.last_change_step,
        "last_output_change_step": result.last_output_change_step,
        "stop_reason": result.stop_reason,
        "config_sha256": config_digest(result.config),
    }


def count_cell(label: str, seed: int) -> dict:
    """One seeded leap-regime run of the count engine: the fields of
    :func:`golden_cell` plus ``edges_sha256``, a digest of the active
    edges in ``active_edges()`` iteration order.  Raises if the run did
    not take the leap path."""
    spec, n, budget, faults = COUNT_CELLS[label]
    protocol = registry.instantiate(spec)
    scenario = Scenario(faults=faults)
    sim = make_engine("count", seed, scenario)
    leaps = []
    sim.leap_hook = lambda steps, counts, ends, k: leaps.append(k)
    result = sim.run(protocol, n, budget, config=scenario.build_initial(protocol, n))
    if not leaps:
        raise AssertionError(f"{label} | seed={seed} did not take the leap path")
    edges = json.dumps(list(result.config.active_edges()), separators=(",", ":"))
    return {
        **result_fields(n, result),
        "edges_sha256": hashlib.sha256(edges.encode()).hexdigest(),
    }


def scale_cell(label: str, seed: int, protocol=None) -> dict:
    """One seeded paper-scale run of the indexed engine, reduced to the
    fields of :func:`golden_cell`, on a fresh instance unless
    ``protocol`` is given."""
    spec, n, _ = SCALE_CELLS[label]
    if protocol is None:
        protocol = registry.instantiate(spec)
    scenario = Scenario()
    sim = make_engine("indexed", seed, scenario)
    result = sim.run(
        protocol, n, SCALE_BUDGET, config=scenario.build_initial(protocol, n)
    )
    return result_fields(n, result)


def scale_cells() -> dict[str, tuple[str, int]]:
    """Fixture key -> (cell label, seed) for the paper-scale fixture."""
    return {
        f"{label} | seed={seed}": (label, seed)
        for label, (_, _, seeds) in SCALE_CELLS.items() for seed in seeds
    }


def count_cells() -> dict[str, tuple[str, int]]:
    """Fixture key -> (cell label, seed) for the leap-regime fixture."""
    return {
        f"{label} | seed={seed}": (label, seed)
        for label in COUNT_CELLS for seed in COUNT_SEEDS
    }


def cells(engine: str, spec: str) -> dict[str, tuple[str, str, str, str, int]]:
    """Fixture key -> (engine, spec, scheduler, fault setting, seed) for
    one protocol on one engine.  The key names the scheduler only when
    it is not the uniform one."""
    grid = [(DEFAULT_SCHEDULER, setting) for setting in FAULT_SETTINGS]
    if engine == "sequential":
        grid += [(s, f) for s in SCHEDULERS for f in SCHEDULER_FAULTS]
    out = {}
    for scheduler, setting in grid:
        label = setting if scheduler == DEFAULT_SCHEDULER else f"{scheduler} | {setting}"
        for seed in SEEDS:
            out[f"{spec} | {label} | seed={seed}"] = (
                engine, spec, scheduler, setting, seed,
            )
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return {
        engine: json.loads(fixture_path(engine).read_text(encoding="utf-8"))
        for engine in (*BUDGETS, "count", "scale")
    }


def test_fixture_covers_the_registry(golden):
    for engine in BUDGETS:
        expected = {key for spec in conformance_specs() for key in cells(engine, spec)}
        assert set(golden[engine]) == expected, engine
    assert set(golden["count"]) == set(count_cells())
    assert set(golden["scale"]) == set(scale_cells())


@pytest.mark.parametrize("spec", conformance_specs())
def test_seeded_results_unchanged(golden, spec):
    mismatches = {}
    for engine in BUDGETS:
        for key, cell in cells(engine, spec).items():
            got = golden_cell(*cell)
            if got != golden[engine][key]:
                mismatches[f"{engine}: {key}"] = {
                    "golden": golden[engine][key], "got": got,
                }
    assert not mismatches, json.dumps(mismatches, indent=1)


@pytest.mark.parametrize("label", COUNT_CELLS)
def test_count_leap_results_unchanged(golden, label):
    mismatches = {}
    for key, cell in count_cells().items():
        if cell[0] == label:
            got = count_cell(*cell)
            if got != golden["count"][key]:
                mismatches[key] = {"golden": golden["count"][key], "got": got}
    assert not mismatches, json.dumps(mismatches, indent=1)


@pytest.mark.parametrize("label", SCALE_CELLS)
def test_scale_results_unchanged(golden, label):
    mismatches = {}
    for key, cell in scale_cells().items():
        if cell[0] == label:
            got = scale_cell(*cell)
            if got != golden["scale"][key]:
                mismatches[key] = {"golden": golden["scale"][key], "got": got}
    assert not mismatches, json.dumps(mismatches, indent=1)


def test_indexed_cells_on_a_warm_table(golden):
    """The indexed grid on one instance per spec, in reverse fixture
    order: each cell runs on the compiled table the cells before it
    warmed, and must still give its fixture value."""
    grid = {
        key: cell
        for spec in conformance_specs()
        for key, cell in cells("indexed", spec).items()
    }
    instances: dict = {}
    mismatches = {}
    for key in reversed(list(golden["indexed"])):
        spec = grid[key][1]
        if spec not in instances:
            instances[spec] = registry.instantiate(spec)
        got = golden_cell(*grid[key], protocol=instances[spec])
        if got != golden["indexed"][key]:
            mismatches[key] = {"golden": golden["indexed"][key], "got": got}
    assert not mismatches, json.dumps(mismatches, indent=1)


def test_scale_cells_on_a_warm_table(golden):
    """The paper-scale cells on one instance per label, seeds reversed."""
    mismatches = {}
    for label, (spec, _, seeds) in SCALE_CELLS.items():
        protocol = registry.instantiate(spec)
        for seed in reversed(seeds):
            key = f"{label} | seed={seed}"
            got = scale_cell(label, seed, protocol=protocol)
            if got != golden["scale"][key]:
                mismatches[key] = {"golden": golden["scale"][key], "got": got}
    assert not mismatches, json.dumps(mismatches, indent=1)


def write_fixture(engine: str, record: dict) -> None:
    path = fixture_path(engine)
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_seeded.py --write")
    for engine in BUDGETS:
        write_fixture(engine, {
            key: golden_cell(*cell)
            for spec in conformance_specs()
            for key, cell in cells(engine, spec).items()
        })
    write_fixture("count", {
        key: count_cell(*cell) for key, cell in count_cells().items()
    })
    write_fixture("scale", {
        key: scale_cell(*cell) for key, cell in scale_cells().items()
    })
