"""The fault plan: the shared fault stream and the rate clocks.

Every fault model of a run draws from one fault rng
(:func:`~repro.core.faults.compile_fault_plan`), so the order in which
the models draw is part of the seeded law.  The golden grids run each
model alone (plus one crash + recover pair); the stream pin below walks
one plan built from every model at once.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import simulator
from repro.core.configuration import Configuration
from repro.core.faults import (
    DEAD,
    FAULTS,
    _unrank_pairs,
    compile_fault_plan,
    survivors,
)
from repro.core.scenario import Scenario
from repro.core.simulator import make_engine
from repro.protocols import registry

#: One of each fault model; byzantine in all three lie modes.
STREAM_MODELS = (
    "crash:count=2,at=5",
    "cut:edges=0-1+4-5,at=7",
    "edge-drop:rate=0.05",
    "edge-rate:rate=0.01",
    "byzantine:count=2,mode=random-state,rate=0.05",
    "byzantine:count=2,mode=replay,rate=0.05",
    "byzantine:count=3,lie=1,mode=always-leader,rate=0.05",
    "arrive:count=2,at=9",
    "recover:at=10,count=1,delay=6",
    "recover:at=13,count=2",
    "churn:rate=0.05",
)

#: sha256 over every firing step and every action's fields, seeds 1-3.
STREAM_DIGEST = (
    "db2fbb1032ff3ccfe0f26cc597ecbb2e956afb4f86a90ab6be910533379a54f1"
)
STREAM_ACTIONS = 237


def _stream_configs() -> tuple[Configuration, ...]:
    """The walk's three fixed 12-node configurations: two ``DEAD`` nodes
    and six active edges; everyone alive with no edge (``edge-drop`` and
    ``recover`` find nothing to act on); everyone ``DEAD`` (``crash``,
    ``byzantine`` and ``churn`` find no alive node)."""
    states = ["q0", "q1", "l", DEAD, "w", "q2", "q0", "l", DEAD, "q1",
              "w", "q0"]
    main = Configuration(
        states, [(0, 1), (1, 2), (4, 5), (5, 6), (9, 10), (10, 11)]
    )
    return main, Configuration.uniform(12, "q0"), Configuration([DEAD] * 12)


def _stream_lines(seed: int) -> list[str]:
    """One line per firing step up to step 240, then one per action."""
    protocol = registry.instantiate("simple-global-line")
    models = tuple(FAULTS.instantiate(spec) for spec in STREAM_MODELS)
    plan = compile_fault_plan(models, 12, seed, protocol)
    assert plan is not None
    main, bare, wiped = _stream_configs()
    lines = []
    step = plan.next_step(-1)
    while step is not None and step <= 240:
        config = bare if step % 6 == 1 else wiped if step % 6 == 4 else main
        lines.append(f"step {step}")
        for a in plan.actions_at(step, config, survivors(config)):
            lines.append(repr((
                a.step, a.kind, a.nodes, a.edges, a.count, a.states,
                a.silent,
            )))
        step = plan.next_step(step)
    return lines


class TestSharedFaultStream:
    def test_every_model_draws_in_the_pinned_order(self):
        lines = [
            line for seed in (1, 2, 3) for line in _stream_lines(seed)
        ]
        actions = sum(1 for line in lines if not line.startswith("step"))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (actions, digest) == (STREAM_ACTIONS, STREAM_DIGEST)


class TestEdgeRateUnderflow:
    @pytest.mark.parametrize("n, rate", [
        # m = 79,800 slots: P(K = 1) = m rate (1-rate)^(m-1) underflows
        # to 0.0, and the firing-count walk used to fire every slot.
        (400, 0.02),
        # m = 33,411: (1-rate)^(m-1) is subnormal, P(K = 1) is computed
        # 11% low, and the walk used to fire every slot ~11% of the time.
        (259, 0.022),
    ])
    def test_a_path_loses_its_rate_share_of_edges_per_firing(self, n, rate):
        firings = 100
        m = n * (n - 1) // 2
        assert math.pow(1.0 - rate, m - 1) < sys.float_info.min
        plan = FAULTS.instantiate(f"edge-rate:rate={rate}").compile(
            n, random.Random(3)
        )
        path = Configuration(["a"] * n, [(u, u + 1) for u in range(n - 1)])
        alive = list(range(n))
        cuts = []
        step = -1
        for _ in range(firings):
            step = plan.next_step(step)
            actions = plan.actions_at(step, path, alive)
            cuts.append(sum(len(action.edges) for action in actions))
        # Each of the n - 1 path edges fails independently per firing.
        expected = (n - 1) * rate
        stderr = math.sqrt((n - 1) * rate * (1.0 - rate) / firings)
        assert abs(sum(cuts) / firings - expected) < 4 * stderr


@st.composite
def _slot_cases(draw):
    """A population size and up to 20 distinct pair slots, ascending."""
    n = draw(st.integers(2, 300))
    slots = draw(st.lists(
        st.integers(0, n * (n - 1) // 2 - 1), max_size=20, unique=True,
    ))
    return n, sorted(slots)


class TestUnrankPairs:
    """``edge-rate`` names its fired pairs by their lexicographic slot;
    each slot's row is computed in closed form."""

    @given(_slot_cases())
    def test_slots_name_the_enumerated_pairs(self, case):
        n, slots = case
        pairs = list(itertools.combinations(range(n), 2))
        assert list(_unrank_pairs(slots, n)) == [pairs[s] for s in slots]

    def test_last_slot_of_a_million_nodes(self):
        n = 10**6
        last = n * (n - 1) // 2 - 1
        assert list(_unrank_pairs([last], n)) == [(n - 2, n - 1)]


class TestTinyRates:
    @pytest.mark.parametrize("spec", [
        "edge-drop:rate=1e-17",
        "churn:rate=1e-17",
        "byzantine:count=1,rate=1e-17",
        "edge-rate:rate=1e-20",
        "edge-drop:rate=1e-320",
    ])
    def test_a_tiny_rate_compiles_to_a_far_first_event(self, spec):
        protocol = registry.instantiate("simple-global-line")
        plan = FAULTS.instantiate(spec).compile(
            8, random.Random(5), protocol=protocol
        )
        assert plan.next_step(-1) > 10**12

    def test_a_run_under_a_tiny_rate_stabilizes(self):
        scenario = Scenario(faults=("edge-drop:rate=1e-17",))
        sim = make_engine("indexed", 1, scenario)
        result = sim.run(
            registry.instantiate("simple-global-line"), 10, 100_000
        )
        assert result.converged


class TestAliveSequence:
    """A firing rule gets the alive ids in ascending order, as a list or
    a ``range``; engines pass a ``range`` when every node is alive, so
    the rules must pick from it without copying it."""

    @pytest.mark.parametrize("spec", [
        "crash:count=3,at=4",
        "churn:rate=0.2",
        "byzantine:count=4,rate=0.2",
    ])
    def test_a_range_picks_what_the_equal_list_picks(self, spec):
        protocol = registry.instantiate("simple-global-line")
        config = Configuration.uniform(40, "q0")
        picks = []
        for alive in (range(40), list(range(40))):
            plan = FAULTS.instantiate(spec).compile(
                40, random.Random(7), protocol=protocol
            )
            fired = []
            step = plan.next_step(-1)
            for _ in range(30):
                if step is None:
                    break
                fired += plan.actions_at(step, config, alive)
                step = plan.next_step(step)
            picks.append(fired)
        assert picks[0] and picks[0] == picks[1]

    @pytest.mark.parametrize("spec", ["crash:count=2,at=0", "churn:rate=0.5"])
    def test_picking_from_a_large_range_copies_nothing(self, spec):
        n = 10**5
        plan = FAULTS.instantiate(spec).compile(n, random.Random(7))
        tracemalloc.start()
        try:
            actions = plan.actions_at(plan.next_step(-1), None, range(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert actions[0].kind == "crash"
        # Sorting a copy of the ids held 0.8 MB.
        assert peak < 10_000, peak

    def test_edge_drop_without_active_edges_skips_the_scan(self):
        class NoScan(Configuration):
            def active_edges(self):
                raise AssertionError("the rule scanned the adjacency")

        rng = random.Random(3)
        plan = FAULTS.instantiate("edge-drop:rate=0.5").compile(5, rng)
        before = rng.getstate()
        config = NoScan.uniform(5, "q0")
        assert plan.actions_at(plan.next_step(-1), config, range(5)) == []
        assert rng.getstate() == before

    def test_edge_rate_reads_the_states_of_fired_pairs_only(self):
        reads = []

        class Counted(Configuration):
            def state(self, u):
                reads.append(u)
                return super().state(u)

        n = 2000
        plan = FAULTS.instantiate("edge-rate:rate=1e-6").compile(
            n, random.Random(3)
        )
        config = Counted.uniform(n, "q0")
        step = -1
        for _ in range(20):
            step = plan.next_step(step)
            assert plan.actions_at(step, config, range(n)) == []
        # Two reads per fired pair; a scan for DEAD nodes read all n
        # states at every firing.
        assert 0 < len(reads) < n

    def test_exact_engines_pass_a_range_while_no_node_is_dead(
        self, monkeypatch
    ):
        compile_plan = simulator.compile_fault_plan
        seen = []

        def recording_plan(*args, **kwargs):
            plan = compile_plan(*args, **kwargs)
            actions_at = plan.actions_at

            def recorded(step, config, alive):
                seen.append((alive, survivors(config)))
                return actions_at(step, config, alive)

            plan.actions_at = recorded
            return plan

        monkeypatch.setattr(simulator, "compile_fault_plan", recording_plan)
        scenario = Scenario(faults=("edge-drop:rate=0.01", "crash:at=300"))
        for engine in ("indexed", "sequential"):
            seen.clear()
            make_engine(engine, 2, scenario).run(
                registry.instantiate("simple-global-line"), 20, 20_000
            )
            assert {isinstance(alive, range) for alive, _ in seen} == {
                True, False,
            }
            for alive, expected in seen:
                assert list(alive) == expected
                assert isinstance(alive, range) == (len(expected) == 20)

    def test_exact_engines_keep_one_alive_list_after_the_first_death(
        self, monkeypatch
    ):
        """Indexed one-way epidemic at n = 2*10^4 under
        ``churn:rate=0.001``: from the first death on, every event hands
        the plan the same list, kept equal to the alive ids instead of
        being rebuilt from all n ids per event.  The seeded outcome is
        pinned."""
        compile_plan = simulator.compile_fault_plan
        seen = []

        def recording_plan(*args, **kwargs):
            plan = compile_plan(*args, **kwargs)
            actions_at = plan.actions_at

            def recorded(step, config, alive):
                seen.append((alive, list(alive) == survivors(config)))
                return actions_at(step, config, alive)

            plan.actions_at = recorded
            return plan

        monkeypatch.setattr(simulator, "compile_fault_plan", recording_plan)
        scenario = Scenario(faults=("churn:rate=0.001",))
        result = make_engine("indexed", 1, scenario).run(
            registry.instantiate("one-way-epidemic"), 20_000, 300_000
        )
        assert (result.stop_reason, result.steps, result.effective_steps) == (
            "max_steps", 300_000, 20_154,
        )
        assert len(seen) > 200
        first, *rest = (alive for alive, _ in seen)
        assert isinstance(first, range)
        assert all(alive is rest[0] for alive in rest)
        assert all(equal for _, equal in seen)
