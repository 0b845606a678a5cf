"""Tests for the state-indexed engine and its supporting layers.

Covers the :mod:`repro.core.indexing` data structures, the compiled
protocol layer (:meth:`repro.core.protocol.Protocol.compile`), and —
most importantly — the **distributional equivalence** of
:class:`IndexedSimulator` with the sequential engine under the uniform
random scheduler, across the three protocol flavours: an
explicit rule table, a PREL coin-flip protocol, and a structured-state
constructor with a code-defined ``delta``.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.indexing import IndexedSet, PairClassIndex
from repro.core.protocol import (
    Distribution,
    Protocol,
    State,
    TableProtocol,
    coin_flip,
    deterministic,
    resolve,
)
from repro.core.scenario import Scenario
from repro.core.simulator import (
    ENGINES,
    IndexedSimulator,
    SequentialSimulator,
    make_engine,
    run_to_convergence,
)
from repro.core.trace import Trace
from repro.generic import ACTIVATE, AddressedEdgeOps
from repro.processes import OneWayEpidemic, one_way_epidemic_expectation
from repro.protocols import CycleCover, GlobalStar, SimpleGlobalLine
from tests.conftest import trial_times


class TokenCollector(Protocol):
    """Structured-state constructor with a code-defined ``delta``: a root
    carrying a counter absorbs free nodes one edge at a time.  The state
    space is unbounded a priori, so the compiled layer must intern
    lazily and memoize per-triple resolutions."""

    name = "Token-Collector"
    initial_state = ("free",)

    def delta(self, a: State, b: State, c: int) -> Distribution | None:
        if c == 0 and a[0] == "root" and b == ("free",):
            return deterministic(("root", a[1] + 1), ("leaf",), 1)
        return None

    def initial_configuration(self, n: int) -> Configuration:
        config = Configuration.uniform(n, ("free",))
        config.set_state(0, ("root", 0))
        return config

    def stabilized(self, config: Configuration) -> bool:
        return config.count_in_state(("free",)) == 0


class LazyEpidemic(TableProtocol):
    """PREL variant of the one-way epidemic: an infection attempt succeeds
    with probability 1/2 (the other coin face is an identity outcome), so
    the expected completion time is exactly twice the epidemic's."""

    def __init__(self) -> None:
        super().__init__(
            name="Lazy-Epidemic",
            initial_state="b",
            rules={
                ("a", "b", 0): coin_flip(("a", "a", 0), ("a", "b", 0)),
            },
        )

    def initial_configuration(self, n: int) -> Configuration:
        config = Configuration.uniform(n, "b")
        config.set_state(0, "a")
        return config

    def stabilized(self, config: Configuration) -> bool:
        return config.count_in_state("a") == config.n


class Exchanges(TableProtocol):
    """Rules no registered table has: an exchange of states that also
    flips the edge, an edge change between an output and a non-output
    node, and a probabilistic rule."""

    def __init__(self) -> None:
        super().__init__(
            name="Exchanges",
            initial_state="a",
            rules={
                ("a", "b", 0): ("b", "a", 1),
                ("x", "a", 1): ("x", "a", 0),
                ("b", "b", 0): coin_flip(("a", "b", 1), ("b", "b", 1)),
                ("a", "a", 1): ("x", "b", 1),
            },
            output_states=("a", "b"),
        )


@pytest.fixture
def indexes(monkeypatch):
    """Every PairClassIndex the engine builds (each holds the compiled
    table it was built over as ``table``)."""
    from repro.core import simulator

    built = []

    class Recording(PairClassIndex):
        def __init__(self, table, config):
            super().__init__(table, config)
            built.append(self)

    monkeypatch.setattr(simulator, "PairClassIndex", Recording)
    return built


class TestIndexedSet:
    def test_add_discard_contains(self):
        s = IndexedSet()
        s.add(3)
        s.add(7)
        s.add(3)
        assert len(s) == 2 and 3 in s and 7 in s
        s.discard(3)
        assert len(s) == 1 and 3 not in s
        s.discard(99)  # absent: no-op
        assert sorted(s) == [7]

    def test_sample_uniform(self):
        s = IndexedSet()
        for i in range(4):
            s.add(i)
        rng = random.Random(0)
        hits = [0] * 4
        for _ in range(4000):
            hits[s.sample(rng)] += 1
        assert min(hits) > 800

    def test_copy_is_independent(self):
        s = IndexedSet()
        s.add("x")
        clone = s.copy()
        clone.add("y")
        assert "y" not in s and len(clone) == 2


class TestPairClassIndex:
    """The census must agree with brute-force pair enumeration."""

    @staticmethod
    def brute_force(protocol, cfg):
        count = 0
        for u in range(cfg.n):
            for v in range(u + 1, cfg.n):
                if protocol.is_effective(
                    cfg.state(u), cfg.state(v), cfg.edge_state(u, v)
                ):
                    count += 1
        return count

    def test_total_matches_brute_force_through_a_run(self):
        protocol = SimpleGlobalLine()
        compiled = protocol.compile()
        n = 12
        cfg = protocol.initial_configuration(n)
        index = PairClassIndex(compiled, cfg)
        assert index.total == self.brute_force(protocol, cfg) == n * (n - 1) // 2

        # Drive the real engine, then rebuild a census on the final
        # configuration (where the `w` leader may still walk) and check it
        # against brute force.
        result = IndexedSimulator(seed=5).run(protocol, n, None)
        final = result.config
        index = PairClassIndex(compiled, final)
        assert index.total == self.brute_force(protocol, final)

    def test_edge_class_reindexing_on_state_change(self):
        compiled = TableProtocol(
            "t", "a", {("a", "b", 1): ("a", "a", 1)}
        ).compile()
        a, b = compiled.intern("a"), compiled.intern("b")
        cfg = Configuration(["a", "b"], [(0, 1)])
        index = PairClassIndex(compiled, cfg)
        assert index.total == 1
        # Node 1 flips to 'a': the (a, b, 1) class empties, and the
        # mover keeps the configuration in step.
        index.move_node(1, b, a)
        index.refresh_involving({b, a})
        assert index.total == 0
        assert cfg.states() == ["a", "a"] and index.sid == [a, a]
        # (a, a) has no effective class, so the edge is filed nowhere.
        assert index.edges == {}

    def test_move_edge_refiles_as_the_mover_does(self):
        """``move_edge`` (``remove_edge`` then ``add_edge``) on each
        incident edge leaves the edge buckets ``move_node`` leaves, in
        the same item order: a global-star hub with four edges to each
        state moves from ``c`` to ``p``."""
        from repro.protocols import registry

        protocol = registry.instantiate("global-star")
        table = protocol.compile()
        states = sorted(protocol.states, key=repr)
        raw = [states[i % len(states)] for i in range(9)]
        hub_old, hub_new = table.intern(raw[0]), table.intern(states[1])
        assert hub_old != hub_new
        star = [(0, v) for v in range(1, 9)]
        moved = PairClassIndex(table, Configuration(raw, star))
        refiled = PairClassIndex(table, Configuration(raw, star))
        moved.move_node(0, hub_old, hub_new)
        for v in list(refiled.config._adj[0]):
            refiled.move_edge(0, v, hub_old, refiled.sid[v], hub_new)

        def order(index):
            return {key: list(bucket) for key, bucket in index.edges.items()}

        assert order(moved) == order(refiled)
        assert any(len(bucket) > 1 for bucket in moved.edges.values())

    def test_dense_class_fallback_samples_non_edges_uniformly(self, monkeypatch):
        """Past the rejection cap, ``sample_pair`` enumerates the class's
        non-edges: it must return only those, uniformly, for a same-state
        class and for a two-state class whose pairs are mostly active."""
        from repro.core import indexing

        monkeypatch.setattr(indexing, "_REJECTION_CAP", 0)
        a_nodes, b_nodes = range(5), range(5, 9)
        gaps = {
            (0, 0, 0): {(0, 1), (2, 3), (1, 4)},
            (0, 1, 0): {(0, 5), (3, 7), (4, 8)},
        }
        active = {(u, v) for u in a_nodes for v in a_nodes if u < v}
        active |= {(u, v) for u in a_nodes for v in b_nodes}
        active -= gaps[(0, 0, 0)] | gaps[(0, 1, 0)]
        state = {u: 0 for u in a_nodes} | {v: 1 for v in b_nodes}
        cfg = Configuration(["ab"[state[u]] for u in sorted(state)], sorted(active))
        # Only the two non-edge classes under test are effective: ids
        # follow repr order, so "a" is 0 and "b" is 1.
        compiled = TableProtocol(
            "gaps", "a", {("a", "a", 0): ("a", "a", 1), ("a", "b", 0): ("a", "b", 1)}
        ).compile()
        assert [compiled.intern(s) for s in "ab"] == [0, 1]
        index = PairClassIndex(compiled, cfg)
        assert index.weights == {(0, 0, 0): 3, (0, 1, 0): 3}

        rng = random.Random(11)
        for key, non_edges in gaps.items():
            hits = dict.fromkeys(non_edges, 0)
            for _ in range(3000):
                u, v = index.sample_pair(key, rng, cfg.edge_state)
                assert (state[u], state[v]) == key[:2]
                pair = (min(u, v), max(u, v))
                assert pair in non_edges, (key, pair)
                hits[pair] += 1
            # 1000 expected per non-edge; the sd is about 26.
            assert all(850 < h < 1150 for h in hits.values()), (key, hits)

    def test_plan_memo_stays_within_its_cap(self, indexes, monkeypatch):
        """A refresh whose visit plan no longer fits under the cap runs
        unmemoized, and the seeded run is the one an uncapped memo gives.
        The memo lives on the compiled table, which counts the cells of
        its visit orders and of its keys, each against the cap; every
        key points at the plan of a memoized visit order."""
        from repro.core import indexing
        from repro.protocols import registry

        def run():
            protocol = registry.instantiate("global-ring")
            result = IndexedSimulator(seed=1).run(protocol, 30, None)
            edges = sorted(result.config.active_edges())
            return result.steps, result.effective_steps, result.config.states(), edges

        def cells(index):
            table = index.table
            orders = sum(
                len(order) + len(plan) for order, plan in table.visits.items()
            )
            keys = sum(len(key) for key in table.plans)
            assert (orders, keys) == (table.plan_cells, table.key_cells)
            shared = {id(plan) for plan in table.visits.values()}
            assert all(id(plan) in shared for plan in table.plans.values())
            return orders, keys

        free = run()
        monkeypatch.setattr(indexing, "_PLAN_CAP", 40)
        assert run() == free
        uncapped, capped = cells(indexes[0]), cells(indexes[1])
        assert min(uncapped) > 40 >= max(capped) and min(capped) > 0
        # Far more keys than visit orders: keys differing only in the
        # present-state order share one order's plan.
        assert len(indexes[0].table.plans) > 2 * len(indexes[0].table.visits)

    def test_steady_state_refreshes_replay_memoized_plans(self, monkeypatch):
        """On a shared table, a refresh whose key is new finds its plan by
        visit order: after two warm passes of small global-ring and
        fast-global-line trials (seeds new each pass), a third pass runs
        few unmemoized visits."""
        from repro.protocols import registry

        visits = [0]
        plan = PairClassIndex._plan

        def counted(self, states, targets):
            visits[0] += 1
            return plan(self, states, targets)

        monkeypatch.setattr(PairClassIndex, "_plan", counted)
        protocols = [registry.instantiate(name)
                     for name in ("global-ring", "fast-global-line")]
        for rnd in range(3):
            visits[0] = 0
            for protocol in protocols:
                for n in (8, 12, 16):
                    for seed in range(10):
                        IndexedSimulator(seed=1000 * rnd + seed).run(protocol, n)
        assert visits[0] < 100


#: Registered protocols that cannot run at n = 12, and those that
#: declare no initial state for an arrival to join in.
NOT_AT_12 = {"addressed-edge-ops"}
NO_JOIN = {"line-tm", "tm-decider", "universal"}


def _registered() -> list[str]:
    from repro.protocols import registry

    registry.ensure_populated()
    return registry.names()


def registry_closed(name: str) -> bool:
    """Whether the registered protocol's compiled table is closed."""
    from repro.protocols import registry

    return registry.instantiate(name).compile().closed


class TestPairClassIndexUnderFaults:
    """The engine's own index equals a brute-force recount of the live
    configuration after every effective interaction and every fault.
    This covers the upkeep paths a plain run never takes (crash, cut,
    corrupt, arrive, revive) and the edges the index leaves unfiled
    because no rule can fire on their class."""

    #: Fault specs, keyed by the action kind each must produce.
    FAULTS = {
        "crash": ("crash:count=2,at=10",),
        "cut": ("edge-drop:rate=0.05",),
        "corrupt": ("byzantine:count=2,mode=replay,rate=0.05",),
        "arrive": ("arrive:count=2,at=10",),
        "revive": ("crash:count=2,at=5", "recover:count=2,at=10,delay=5"),
    }

    @staticmethod
    def check(index, protocol, cfg):
        from repro.core.faults import DEAD

        # The engine interned every live state already, so intern() only
        # looks ids up; effectiveness is asked of the raw protocol so the
        # check interns no outcome states of its own.
        compiled = index.table
        sid = {}
        nodes: dict = {}
        for u in range(cfg.n):
            if cfg.state(u) != DEAD:
                sid[u] = compiled.intern(cfg.state(u))
                nodes.setdefault(sid[u], set()).add(u)
        weights: dict = {}
        edges: dict = {}
        alive = sorted(sid)
        for i, u in enumerate(alive):
            for v in alive[i + 1:]:
                c = cfg.edge_state(u, v)
                pair = tuple(sorted((sid[u], sid[v])))
                if c:
                    edges.setdefault(pair, set()).add((u, v))
                if protocol.is_effective(cfg.state(u), cfg.state(v), c):
                    key = pair + (c,)
                    weights[key] = weights.get(key, 0) + 1
        # Every present state is counted; only those outside count_only
        # are filed, with exactly their nodes.
        count_only = index.count_only
        assert index.counts == {s: len(b) for s, b in nodes.items()}
        assert not count_only & set(index.nodes)
        assert {s: set(b) for s, b in index.nodes.items()} == {
            s: b for s, b in nodes.items() if s not in count_only
        }
        assert index.weights == weights
        assert index.total == sum(weights.values())
        assert all(index.sid[u] == s for u, s in sid.items())
        # The mover keeps the configuration's histogram in step with
        # its states.
        assert cfg.state_counts() == Counter(cfg.states())
        for lo in nodes:
            for hi in nodes:
                if lo <= hi and protocol.is_effective(
                    compiled.state_of(lo), compiled.state_of(hi), 1
                ):
                    bucket = index.edges.get((lo, hi), ())
                    assert set(bucket) == edges.get((lo, hi), set())

    # The lazy epidemic builds no edges, so it has nothing to cut.
    @pytest.mark.parametrize("factory, fault", [
        (factory, fault)
        for fault in sorted(FAULTS)
        for factory in (SimpleGlobalLine, LazyEpidemic, TokenCollector)
        if (factory, fault) != (LazyEpidemic, "cut")
    ])
    def test_index_matches_recount(self, indexes, factory, fault):
        from repro.core.scenario import Scenario
        from repro.core.trace import BusSubscriber, TraceBus

        protocol = factory()
        scenario = Scenario(faults=self.FAULTS[fault])
        # The engine runs on this configuration in place.
        config = protocol.initial_configuration(14)
        check = self.check
        checks = [0]
        kinds: set = set()

        class FaultProbe(BusSubscriber):
            def on_fault(self, frame):
                kinds.update(frame.kinds)
                check(indexes[-1], protocol, config)

        def stop(cfg):
            check(indexes[-1], protocol, cfg)
            checks[0] += 1
            return False

        bus = TraceBus()
        bus.subscribe(FaultProbe())
        result = IndexedSimulator(seed=3, faults=scenario.make_faults()).run(
            protocol, 14, 20_000, config=config, copy_config=False,
            stop=stop, check_interval=1, bus=bus,
        )
        check(indexes[-1], protocol, result.config)
        assert checks[0] >= result.effective_steps > 0
        assert fault in kinds

    @pytest.mark.parametrize("name, fault", [
        (name, fault)
        for name in _registered()
        if name not in NOT_AT_12
        for fault in (
            None, "crash:count=1,at=30", "arrive:count=2,at=30",
            "edge-drop:rate=0.01", "byzantine:count=2,mode=replay,rate=0.01",
            "crash:count=2,at=30 recover:count=2,at=300",
        )
        if not (name in NO_JOIN and fault
                and ("arrive" in fault or "recover" in fault))
    ])
    def test_index_matches_recount_registry_wide(self, indexes, name, fault):
        """Every registered protocol that runs at n = 12, checked after
        every change through a structural stop: with no fault, and
        under each of the walk's fault methods (a crash, an arrival,
        edge cuts, which ft- and rc-global-line repair through
        ``on_edge_loss``, state corruptions, and revivals; ``fault``
        holds one spec, or several separated by spaces).  The count-only
        swap shortcut, the mover, the fault upkeep and edge classes in
        the walk's own mover all meet the recount, and so does the
        configuration's histogram."""
        from repro.core.scenario import Scenario
        from repro.protocols import registry

        check = self.check
        protocol = registry.instantiate(name)
        faults = (
            Scenario(faults=tuple(fault.split())).make_faults() if fault else ()
        )
        checks = [0]

        def stop(cfg):
            cfg.state(0)  # structural: never asked through the view
            check(indexes[-1], protocol, cfg)
            checks[0] += 1
            return False

        result = IndexedSimulator(seed=3, faults=faults).run(
            protocol, 12, 3_000, stop=stop,
        )
        check(indexes[-1], protocol, result.config)
        assert checks[0] >= result.effective_steps > 0


class TestWalkDrawsTheReference:
    """The walk's inline class and pair draws take exactly what
    ``sample_class`` and ``sample_pair`` take."""

    TABLES = (
        "simple-global-line", "global-star", "cycle-cover",
        "one-way-epidemic", "global-ring", "maximum-matching",
        "fast-global-line", "2rc", "node-cover", "spanning-network",
    )

    @pytest.mark.parametrize("cap", [64, 0])
    @pytest.mark.parametrize("name", TABLES)
    def test_walk_publishes_the_reference_pair(self, name, cap, monkeypatch):
        """Before each applied change, draw on a clone of the walk's
        generator what the walk draws: one ``random()`` for the skip
        unless every alive pair is effective, then ``sample_class`` and
        ``sample_pair``.  The pair the walk publishes is that pair, with
        the rejection sampler and with the dense fallback alone
        (``_REJECTION_CAP`` 0)."""
        from repro.core import indexing
        from repro.protocols import registry

        monkeypatch.setattr(indexing, "_REJECTION_CAP", cap)
        protocol = registry.instantiate(name)
        n = 12
        cfg = protocol.initial_configuration(n)
        index = PairClassIndex(protocol.compile(), cfg)
        trace = Trace()
        rng = random.Random(7)
        advance = index.walk(rng, trace, protocol.stabilized)[0]
        steps = 0
        for _ in range(150):
            if not index.total:
                break
            clone = random.Random()
            clone.setstate(rng.getstate())
            if index.total != n * (n - 1) // 2:
                clone.random()
            key = index.sample_class(clone)
            pair = index.sample_pair(key, clone, cfg.edge_state)
            steps, _, applied, passed, _ = advance(steps, None, None)
            assert (applied, passed) == (1, 0)
            event = trace.events[-1]
            assert (event.u, event.v) == pair, (name, event.step)
        assert len(trace.events) >= 6


class Misdeclared(Protocol):
    """Declares ``{"a", "b"}`` but reaches ``"z"``: ``b`` forms no
    effective non-edge class with a declared state, so the index counts
    it without filing it, yet ``(z, b, 0)`` is effective."""

    name = "Misdeclared"
    initial_state = "a"
    states = frozenset({"a", "b"})

    def delta(self, a: State, b: State, c: int) -> Distribution | None:
        if (a, b, c) == ("a", "a", 0):
            return deterministic("b", "z", 0)
        if (a, b, c) == ("z", "b", 0):
            return deterministic("a", "a", 0)
        return None


class TestCountOnlyStates:
    """States no non-edge pair draw can reach are counted, not filed."""

    LAZY = ("addressed-edge-ops", "line-tm", "tm-decider", "universal")

    def test_count_only_matches_a_scan_of_the_declared_pairs(self):
        """For every registered protocol with a closed table, the
        count-only set is exactly the declared states forming no
        effective non-edge class with any declared state; asking
        interns nothing.  Lazily interning tables have none."""
        from repro.protocols import registry

        registry.ensure_populated()
        closed = []
        for name in registry.names():
            protocol = registry.instantiate(name)
            table = protocol.compile()
            if name in self.LAZY:
                assert protocol.states is None and not table.closed
                assert table.count_only == frozenset()
                continue
            states = sorted(protocol.states, key=repr)
            expected = frozenset(
                i for i, a in enumerate(states)
                if not any(protocol.is_effective(a, b, 0) for b in states)
            )
            assert table.count_only == expected, name
            assert table.closed and table.n_states == len(states), name
            if expected:
                closed.append(name)
        assert {"simple-global-line", "global-ring", "fast-global-line"} <= set(closed)
        line = SimpleGlobalLine().compile()
        assert {line.state_of(i) for i in line.count_only} == {"q1", "q2", "w"}

    def test_line_run_files_no_walker_state(self, indexes):
        """A Figure-2 line run keeps no node bucket for q1, q2 or w, yet
        counts them: at the end every interior node is a q2."""
        protocol = SimpleGlobalLine()
        result = IndexedSimulator(seed=4).run(protocol, 60)
        assert result.converged
        index = indexes[-1]
        table = index.table
        walkers = {table.intern(s) for s in ("q1", "q2", "w")}
        assert index.count_only == walkers
        assert not walkers & set(index.nodes)
        assert index.counts == {
            table.intern(state): count
            for state, count in result.config.state_counts().items()
        }
        assert index.counts[table.intern("q2")] >= 57

    def test_inlined_draw_is_randrange(self):
        """The walk's class and pair draws inline ``indexing.randbelow``:
        it returns ``randrange(n)``'s value and leaves the generator in
        the same state, for every n up to 2^40."""
        from hypothesis import given, strategies as st

        from repro.core.indexing import randbelow

        @given(st.integers(1, 1 << 40), st.integers(0, 1 << 32))
        def draws_alike(n, seed):
            inlined, reference = random.Random(seed), random.Random(seed)
            assert randbelow(inlined.getrandbits, n) == reference.randrange(n)
            assert inlined.getstate() == reference.getstate()

        draws_alike()

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_misdeclared_protocol_is_refused_by_name(self, n):
        """A draw from a non-edge class that reaches a count-only state
        raises SimulationError naming it: never a KeyError, never a
        pair from outside the class."""
        for seed in range(1, 6):
            with pytest.raises(SimulationError, match="state 'b'"):
                IndexedSimulator(seed=seed).run(Misdeclared(), n, 10_000)


class TestCompiledProtocol:
    def test_interning_is_deterministic(self):
        ids1 = {s: GlobalStar().compile().intern(s) for s in GlobalStar().states}
        ids2 = {s: GlobalStar().compile().intern(s) for s in GlobalStar().states}
        assert ids1 == ids2

    def test_resolved_matches_resolve(self):
        protocol = SimpleGlobalLine()
        compiled = protocol.compile()
        for a in protocol.states:
            for b in protocol.states:
                for c in (0, 1):
                    raw = resolve(protocol, a, b, c)
                    cooked = compiled.resolved(
                        compiled.intern(a), compiled.intern(b), c
                    )
                    if raw is None:
                        assert cooked is None
                        continue
                    dist, swapped = raw
                    cdist, cswapped = cooked
                    assert swapped == cswapped
                    assert [
                        (p, out.as_triple()) for p, out in dist
                    ] == [
                        (
                            p,
                            (
                                compiled.state_of(ia),
                                compiled.state_of(ib),
                                ic,
                            ),
                        )
                        for p, (ia, ib, ic) in cdist
                    ]

    def test_effectiveness_matches_protocol(self):
        protocol = SimpleGlobalLine()
        compiled = protocol.compile()
        for a in protocol.states:
            for b in protocol.states:
                for c in (0, 1):
                    assert compiled.is_effective(
                        compiled.intern(a), compiled.intern(b), c
                    ) == protocol.is_effective(a, b, c)

    def test_lazy_interning_for_code_defined_delta(self):
        compiled = TokenCollector().compile()
        assert compiled.n_states == 0
        root = compiled.intern(("root", 0))
        free = compiled.intern(("free",))
        assert compiled.is_effective(root, free, 0)
        assert not compiled.is_effective(free, free, 0)
        # The absorption outcome interned two fresh states.
        assert compiled.n_states == 4

    def test_identity_distribution_is_ineffective(self):
        protocol = TableProtocol(
            "t", "a", {("a", "b", 0): [(0.5, ("a", "b", 0)), (0.5, ("a", "b", 0))]}
        )
        compiled = protocol.compile()
        assert not compiled.is_effective(
            compiled.intern("a"), compiled.intern("b"), 0
        )

    @staticmethod
    def derived(table, a, b, c, new_a, new_b, new_edge):
        """What the walk derived for each change from ``table.resolved``
        and one oriented outcome before it read transition records: the
        new states and edge, what changed, the swap its census shortcut
        and its swap passing tested, whether the output graph may have
        changed (``simulator._output_affected``), and the dirty set it
        refreshed."""
        from repro.core.simulator import _output_affected
        from repro.core.trace import Event

        a_changed, b_changed = new_a != a, new_b != b
        edge_changed = new_edge != c
        state = table.state_of
        event = Event(
            1, 0, 1, state(a), state(new_a), state(b), state(new_b),
            c, new_edge,
        )
        if a_changed and b_changed:
            dirty = {a, new_a, b, new_b}
        elif a_changed:
            dirty = {a, new_a}
        elif b_changed:
            dirty = {b, new_b}
        else:
            dirty = set()
        return (
            new_a, new_b, new_edge, a_changed, b_changed, edge_changed,
            not edge_changed and new_a == b and new_b == a and a != b,
            _output_affected(table.protocol, event), dirty,
        )

    def check_triple(self, table, a, b, c):
        """The record of an effective triple, and the change of each
        outcome its rule may draw, equal the walk's own derivation,
        down to the dirty states' iteration order and how they merge
        into a refresh's targets."""
        rule = table.resolved(a, b, c)
        if rule is None:
            return  # ineffective: no class of it is ever drawn
        dist, swapped = rule
        outcomes = []
        for _, (x, y, edge) in dist:
            new_a, new_b = (y, x) if swapped else (x, y)
            outcomes.append((new_a, new_b, edge))
            if a == b and new_a != new_b:
                outcomes.append((new_b, new_a, edge))  # the coin's face
        record = table.transition(a, b, c)
        changes = [table.change(a, b, c, *outcome) for outcome in outcomes]
        if len(outcomes) == 1:
            assert record == changes[0], (a, b, c)
        else:
            assert record == (), (a, b, c)
        for outcome, change in zip(outcomes, changes):
            *fields, dirty = change
            *expected, want = self.derived(table, a, b, c, *outcome)
            assert fields == expected, (a, b, c, outcome)
            assert dirty == want and list(dirty) == list(want), (a, b, c)
            for present in ({a, b}, set(range(table.n_states))):
                merged, reference = set(present), set(present)
                merged.update(dirty)
                reference.update(want)
                assert list(merged) == list(reference), (a, b, c, present)

    @pytest.mark.parametrize("name", [
        *(
            name for name in _registered()
            if registry_closed(name) or name in ("line-tm", "universal")
        ),
        "exchanges",
    ])
    def test_transition_records_match_the_walk_derivation(self, name):
        """Every declared triple of a closed table; for line-tm and
        universal, which intern lazily, every triple a short run
        resolves."""
        from repro.protocols import registry

        protocol = (
            Exchanges() if name == "exchanges" else registry.instantiate(name)
        )
        table = protocol.compile()
        if table.closed:
            triples = [
                (a, b, c)
                for a in range(table.n_states)
                for b in range(table.n_states)
                for c in (0, 1)
            ]
        else:
            index = PairClassIndex(table, protocol.initial_configuration(12))
            advance = index.walk(
                random.Random(3), None, protocol.stabilized
            )[0]
            steps = 0
            for _ in range(300):
                if not index.total:
                    break
                steps = advance(steps, None, None)[0]
            triples = [key for key, rule in table._resolved.items() if rule]
            assert len(table._transitions) >= 5, name
        for triple in triples:
            self.check_triple(table, *triple)

    def test_pair_keys_cover_every_interned_id(self):
        """An eagerly interned table keys every id pair, an undeclared
        state interned late included; a lazily interning one keeps no
        key table."""
        protocol = TableProtocol("t", "a", {("a", "b", 0): ("b", "b", 1)})
        table = protocol.compile()

        def expected():
            ids = range(table.n_states)
            return [[(min(a, b), max(a, b)) for b in ids] for a in ids]

        assert table.pair_keys == expected()
        table.intern("z")
        assert table.n_states == 3
        assert table.pair_keys == expected()
        assert TokenCollector().compile().pair_keys is None


class TestIndexedEngineBasics:
    def test_registry_and_factory(self):
        assert set(ENGINES) == {"sequential", "indexed", "count"}
        assert isinstance(make_engine("indexed", seed=1), IndexedSimulator)
        with pytest.raises(SimulationError):
            make_engine("warp-drive")

    def test_run_to_convergence_defaults_to_indexed(self):
        result = run_to_convergence(GlobalStar(), 12, seed=0)
        assert result.converged
        assert GlobalStar().target_reached(result.config)

    def test_run_to_convergence_sequential_requires_budget(self):
        with pytest.raises(SimulationError):
            run_to_convergence(GlobalStar(), 8, seed=0, engine="sequential")

    def test_run_trials_sequential_requires_budget(self):
        from repro.analysis.runner import ExperimentError

        with pytest.raises(ExperimentError, match="max_steps"):
            trial_times("global-star", 8, 1, engine="sequential")
        times = trial_times(
            "global-star", 8, 2, engine="sequential", max_steps=100_000
        )
        assert len(times) == 2

    def test_stabilizes_star_and_line(self):
        star = IndexedSimulator(seed=0).run(GlobalStar(), 15, None)
        assert star.converged and GlobalStar().target_reached(star.config)
        line = IndexedSimulator(seed=0).run(SimpleGlobalLine(), 15, None)
        assert line.converged
        assert SimpleGlobalLine().target_reached(line.config)

    def test_quiescence_detection(self):
        protocol = TableProtocol("t", "a", {("a", "a", 0): ("b", "b", 1)})
        result = IndexedSimulator(seed=0).run(protocol, 4, None)
        assert result.converged
        assert result.stop_reason in ("quiescent", "stabilized")

    def test_max_steps_budget(self):
        result = IndexedSimulator(seed=0).run(GlobalStar(), 40, max_steps=10)
        assert not result.converged
        assert result.steps == 10

    def test_require_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            IndexedSimulator(seed=0).run(
                GlobalStar(), 40, max_steps=10, require_convergence=True
            )

    def test_seed_reproducibility(self):
        r1 = IndexedSimulator(seed=11).run(GlobalStar(), 20, None)
        r2 = IndexedSimulator(seed=11).run(GlobalStar(), 20, None)
        assert r1.steps == r2.steps
        assert r1.config == r2.config

    def test_trace_records_events(self):
        trace = Trace()
        result = IndexedSimulator(seed=1).run(GlobalStar(), 8, None, trace=trace)
        assert result.converged
        assert len(trace) == result.effective_steps
        assert trace.activations()

    def test_in_place_configuration(self):
        protocol = TableProtocol("t", "a", {("a", "a", 0): ("b", "b", 1)})
        config = protocol.initial_configuration(4)
        IndexedSimulator(seed=0).run(
            protocol, 4, None, config=config, copy_config=False
        )
        assert config.state_counts().get("b", 0) == 4

    def test_steps_dominate_effective_steps(self):
        result = IndexedSimulator(seed=2).run(GlobalStar(), 16, None)
        assert result.steps >= result.effective_steps

    def test_rejects_tiny_population(self):
        with pytest.raises(SimulationError):
            IndexedSimulator(seed=0).run(GlobalStar(), 1, None)

    @pytest.mark.parametrize("factory", [GlobalStar, CycleCover])
    @pytest.mark.parametrize("n", [16, 60])
    @pytest.mark.parametrize("faults", [
        (),
        ("arrive:count=3,at=200",),
        ("crash:count=2,at=100", "recover:count=2,at=100,delay=300"),
    ], ids=["none", "arrive", "crash-recover"])
    def test_nodes_in_state_mid_walk_matches_the_states(
        self, factory, n, faults
    ):
        """Both certificates call ``nodes_in_state`` mid-walk (global-
        star's once its two counts hold, cycle-cover's in its last
        phase), which scans the states the walk keeps for as many nodes
        as the histogram counts: the walk's moves, crashes, revivals and
        arrivals must keep the two in step, and the final configuration
        answers as a scan of its states does."""
        for seed in range(3):
            sim = IndexedSimulator(
                seed=seed, faults=Scenario(faults=faults).make_faults()
            )
            config = sim.run(factory(), n, 2_000_000).config
            states = config.states()
            for s in set(states):
                assert config.nodes_in_state(s) == [
                    u for u, t in enumerate(states) if t == s
                ]


def _mean_ci(times):
    mean = statistics.fmean(times)
    half = 1.96 * statistics.stdev(times) / (len(times) ** 0.5)
    return mean, half


class TestDistributionalEquivalence:
    """The indexed engine must sample the same convergence-time law as the
    reference engines: means within overlapping 95% CI bands."""

    def test_table_protocol_epidemic_vs_theory_and_engines(self):
        n, trials = 12, 400
        exact = one_way_epidemic_expectation(n)

        idx_times = [
            IndexedSimulator(seed=s).run(OneWayEpidemic(), n, None).last_change_step
            for s in range(trials)
        ]
        seq_times = [
            SequentialSimulator(seed=s)
            .run(OneWayEpidemic(), n, max_steps=100_000)
            .last_change_step
            for s in range(trials)
        ]
        idx_mean, _ = _mean_ci(idx_times)
        seq_mean, _ = _mean_ci(seq_times)
        assert abs(idx_mean - exact) / exact < 0.1
        assert abs(idx_mean - seq_mean) / exact < 0.15

    def test_table_protocol_ks_against_sequential(self):
        from scipy.stats import ks_2samp

        n, trials = 8, 400
        idx_times = [
            IndexedSimulator(seed=s).run(OneWayEpidemic(), n, None).last_change_step
            for s in range(trials)
        ]
        seq_times = [
            SequentialSimulator(seed=10_000 + s)
            .run(OneWayEpidemic(), n, max_steps=100_000)
            .last_change_step
            for s in range(trials)
        ]
        statistic, p_value = ks_2samp(idx_times, seq_times)
        assert p_value > 0.001, (statistic, p_value)

    def test_prel_coin_flip_protocol(self):
        n, trials = 10, 400
        # Success probability 1/2 per pick exactly doubles the epidemic.
        exact = 2 * one_way_epidemic_expectation(n)
        idx_times = [
            IndexedSimulator(seed=s).run(LazyEpidemic(), n, None).last_change_step
            for s in range(trials)
        ]
        seq_times = [
            SequentialSimulator(seed=s)
            .run(LazyEpidemic(), n, max_steps=100_000)
            .last_change_step
            for s in range(trials)
        ]
        idx_mean, _ = _mean_ci(idx_times)
        seq_mean, _ = _mean_ci(seq_times)
        assert abs(idx_mean - exact) / exact < 0.1
        assert abs(idx_mean - seq_mean) / exact < 0.15

    def test_structured_state_generic_constructor(self):
        n, trials = 10, 300
        engines = {
            "indexed": lambda s: IndexedSimulator(seed=s).run(
                TokenCollector(), n, None
            ),
            "sequential": lambda s: SequentialSimulator(seed=s).run(
                TokenCollector(), n, max_steps=100_000
            ),
        }
        means = {}
        for name, run in engines.items():
            times = []
            for s in range(trials):
                result = run(s)
                assert result.converged
                assert result.config.count_in_state(("root", n - 1)) == 1
                assert result.config.n_active_edges == n - 1
                times.append(result.last_change_step)
            means[name] = _mean_ci(times)
        idx_mean, _ = means["indexed"]
        seq_mean, _ = means["sequential"]
        assert abs(idx_mean - seq_mean) / idx_mean < 0.15, means

    def test_line_protocol_same_stable_outputs(self):
        for seed in range(5):
            idx = IndexedSimulator(seed=seed).run(SimpleGlobalLine(), 9, None)
            seq = SequentialSimulator(seed=seed).run(
                SimpleGlobalLine(), 9, max_steps=10_000_000
            )
            assert idx.converged and seq.converged
            assert SimpleGlobalLine().target_reached(idx.config)
            assert SimpleGlobalLine().target_reached(seq.config)

    def test_addressed_edge_ops_structured_protocol(self):
        """The Figure 6 machinery (tuple states, code-defined delta,
        driver-installed selection marks) runs identically on the indexed
        engine, as on the reference engine."""
        for engine, budget in (("indexed", None), ("sequential", 1_000_000)):
            ops = AddressedEdgeOps(3)
            config = ops.initial_configuration(6)
            ops.select(config, 0, 2, ACTIVATE)
            result = make_engine(engine, seed=4).run(
                ops, config.n, budget, config=config, copy_config=False
            )
            assert result.converged
            assert config.edge_state(ops.d_agent(0), ops.d_agent(2)) == 1


def _scenario_times(engine, protocol_factory, n, scenario, budget, seeds):
    """Re-stabilization times of one engine over a faulted scenario."""
    times = []
    for seed in seeds:
        sim = make_engine(engine, seed, scenario)
        result = sim.run(protocol_factory(), n, budget)
        times.append(result.last_output_change_step)
    return times


class TestFaultedDistributionalEquivalence:
    """The under-fault companion of :class:`TestDistributionalEquivalence`
    (closes the ROADMAP open item): both exact engines must sample the
    same re-stabilization-time law when the scenario injects faults —
    crash-stop with notifications, sustained edge deletion, and
    population arrivals.  The fault stream is derived from the trial
    seed identically in every engine, so disjoint seed ranges give
    independent samples for the KS tests."""

    TRIALS = 250

    def _check(self, protocol_factory, n, scenario, budget):
        from scipy.stats import ks_2samp

        idx = _scenario_times(
            "indexed", protocol_factory, n, scenario, budget,
            range(self.TRIALS),
        )
        seq = _scenario_times(
            "sequential", protocol_factory, n, scenario, budget,
            range(20_000, 20_000 + self.TRIALS),
        )
        # Faulted re-stabilization times are heavy-tailed (one late
        # fault can dominate a run), so the location check bands the
        # median; the KS test compares the full law.
        idx_median = statistics.median(idx)
        seq_median = statistics.median(seq)
        assert abs(idx_median - seq_median) / idx_median < 0.3, (
            idx_median, seq_median,
        )
        statistic, p_value = ks_2samp(idx, seq)
        assert p_value > 0.001, (statistic, p_value)

    def test_crash_with_notifications(self):
        from repro.core.scenario import Scenario
        from repro.protocols import FTGlobalLine

        # The fault-tolerant line exercises the on_neighbor_crash
        # notification path of every engine and always re-stabilizes.
        self._check(
            FTGlobalLine, 10,
            Scenario(faults=("crash:count=2,at=50",)), 500_000,
        )

    def test_edge_drop(self):
        from repro.core.scenario import Scenario

        self._check(
            SimpleGlobalLine, 8,
            Scenario(faults=("edge-drop:rate=0.002",)), 100_000,
        )

    def test_arrivals(self):
        from repro.core.scenario import Scenario

        # Population growth mid-run: the indexed census gains nodes and
        # the sequential engine re-binds its pair stream — both must
        # agree in law.
        self._check(
            SimpleGlobalLine, 6,
            Scenario(faults=("arrive:count=3,at=100",)), 500_000,
        )

    def test_edge_rate(self):
        from repro.core.scenario import Scenario

        # Per-edge independent failure: the m-slot Bernoulli clocks are
        # step-indexed, so the skip-ahead engines must sample the same
        # law as the step-walking sequential engine.
        self._check(
            SimpleGlobalLine, 8,
            Scenario(faults=("edge-rate:rate=0.0001",)), 100_000,
        )

    def test_byzantine(self):
        from repro.core.scenario import Scenario
        from repro.protocols import FTGlobalLine

        # State lies and silent edge-flag lies are scheduled on the
        # same step-indexed clock in every engine; the corrupted line
        # keeps re-stabilizing, so the re-stabilization law is the
        # cross-engine observable.
        self._check(
            FTGlobalLine, 8,
            Scenario(faults=("byzantine:count=2,rate=0.001,lie=0.5",)),
            200_000,
        )
