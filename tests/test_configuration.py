"""Tests for configurations and output-graph extraction."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.configuration import Census, Configuration, census_pair_key
from repro.core.errors import SimulationError


class TestConstruction:
    def test_uniform(self):
        config = Configuration.uniform(5, "q0")
        assert config.n == 5
        assert config.states() == ["q0"] * 5
        assert config.n_active_edges == 0

    def test_uniform_rejects_empty(self):
        with pytest.raises(SimulationError):
            Configuration.uniform(0, "q0")

    def test_initial_edges(self):
        config = Configuration(["a", "b", "c"], [(0, 1), (1, 2)])
        assert config.edge_state(0, 1) == 1
        assert config.edge_state(0, 2) == 0
        assert config.n_active_edges == 2


class TestStates:
    def test_set_and_read(self):
        config = Configuration.uniform(3, "a")
        config.set_state(1, "b")
        assert config.state(1) == "b"
        assert config.state_counts() == {"a": 2, "b": 1}

    def test_nodes_in_state(self):
        config = Configuration(["a", "b", "a"])
        assert config.nodes_in_state("a") == [0, 2]


class TestEdges:
    def test_activation_and_deactivation(self):
        config = Configuration.uniform(4, "a")
        config.set_edge(0, 1, 1)
        assert config.edge_state(1, 0) == 1  # symmetric
        config.set_edge(1, 0, 0)
        assert config.edge_state(0, 1) == 0
        assert config.n_active_edges == 0

    def test_idempotent_updates(self):
        config = Configuration.uniform(3, "a")
        config.set_edge(0, 1, 1)
        config.set_edge(0, 1, 1)
        assert config.n_active_edges == 1
        config.set_edge(0, 2, 0)
        assert config.n_active_edges == 1

    def test_self_loop_rejected(self):
        config = Configuration.uniform(3, "a")
        with pytest.raises(SimulationError):
            config.set_edge(1, 1, 1)

    def test_invalid_edge_state_rejected(self):
        config = Configuration.uniform(3, "a")
        with pytest.raises(SimulationError):
            config.set_edge(0, 1, 2)

    def test_degree_and_neighbors(self):
        config = Configuration.uniform(4, "a")
        config.set_edge(0, 1, 1)
        config.set_edge(0, 2, 1)
        assert config.degree(0) == 2
        assert config.neighbors(0) == frozenset({1, 2})

    def test_active_edges_iteration(self):
        config = Configuration.uniform(4, "a")
        config.set_edge(2, 0, 1)
        config.set_edge(3, 1, 1)
        assert sorted(config.active_edges()) == [(0, 2), (1, 3)]


class TestOutputGraph:
    def test_all_states_output(self):
        config = Configuration(["a", "b", "c"], [(0, 1)])
        graph = config.output_graph()
        assert graph.number_of_nodes() == 3
        assert graph.has_edge(0, 1)

    def test_restricted_output_states(self):
        config = Configuration(["a", "b", "b", "a"], [(0, 1), (1, 2)])
        graph = config.output_graph(frozenset({"b"}))
        assert sorted(graph.nodes()) == [1, 2]
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(0, 1)

    def test_active_subgraph(self):
        config = Configuration(["a"] * 4, [(0, 1), (2, 3), (1, 2)])
        sub = config.active_subgraph([0, 1, 2])
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]


class TestCopySemantics:
    def test_copy_is_independent(self):
        config = Configuration(["a", "b"], [(0, 1)])
        clone = config.copy()
        clone.set_state(0, "z")
        clone.set_edge(0, 1, 0)
        assert config.state(0) == "a"
        assert config.edge_state(0, 1) == 1

    def test_signature_equality(self):
        c1 = Configuration(["a", "b"], [(0, 1)])
        c2 = Configuration(["a", "b"], [(1, 0)])
        assert c1 == c2
        c2.set_state(0, "b")
        assert c1 != c2

    def test_copy_preserves_state_index(self):
        config = Configuration(["a", "b", "a"])
        clone = config.copy()
        clone.set_state(0, "b")
        assert config.state_counts() == {"a": 2, "b": 1}
        assert clone.state_counts() == {"a": 1, "b": 2}
        assert clone.nodes_in_state("b") == [0, 1]


class TestHashability:
    """Configurations are mutable and deliberately unhashable; the
    immutable ``signature()`` snapshot is the dict-key surrogate."""

    def test_configuration_is_unhashable(self):
        config = Configuration.uniform(3, "a")
        with pytest.raises(TypeError):
            hash(config)
        with pytest.raises(TypeError):
            {config}

    def test_signature_is_a_usable_key(self):
        c1 = Configuration(["a", "b"], [(0, 1)])
        c2 = Configuration(["a", "b"], [(1, 0)])
        seen = {c1.signature(): "first"}
        assert seen[c2.signature()] == "first"
        c2.set_state(0, "b")
        assert c2.signature() not in seen


class TestStateIndex:
    """The incremental state histogram behind state_counts and
    count_in_state, and the scan behind nodes_in_state."""

    def test_counts_track_mutations(self):
        config = Configuration.uniform(4, "a")
        config.set_state(0, "b")
        config.set_state(1, "b")
        config.set_state(0, "c")
        assert config.state_counts() == {"a": 2, "b": 1, "c": 1}
        assert config.count_in_state("a") == 2
        assert config.count_in_state("b") == 1
        assert config.count_in_state("missing") == 0

    def test_set_state_to_same_state_is_noop(self):
        config = Configuration.uniform(3, "a")
        config.set_state(1, "a")
        assert config.state_counts() == {"a": 3}
        assert config.nodes_in_state("a") == [0, 1, 2]

    def test_nodes_in_state_sorted_and_live(self):
        config = Configuration(["x", "y", "x", "y", "x"])
        assert config.nodes_in_state("x") == [0, 2, 4]
        config.set_state(2, "y")
        assert config.nodes_in_state("x") == [0, 4]
        assert config.nodes_in_state("y") == [1, 2, 3]
        assert config.nodes_in_state("z") == []

    def test_unhashable_free_structured_states(self):
        config = Configuration([("root", 0), ("free",), ("free",)])
        assert config.count_in_state(("free",)) == 2
        config.set_state(1, ("leaf",))
        assert config.state_counts() == {
            ("root", 0): 1,
            ("free",): 1,
            ("leaf",): 1,
        }


class TestMemory:
    """A configuration stores its states, its adjacency and a state
    histogram: two lists of n pointers and nothing per node besides.
    The count engine builds one at the start of a run (for its census)
    and one for the result, so at n = 10^5 each must cost two 0.8 MB
    lists.  Filing every node in a per-state set as well peaked at
    18.6 MB for the census path below."""

    N = 10**5

    @staticmethod
    def peak(build):
        tracemalloc.start()
        try:
            kept = build()
            return tracemalloc.get_traced_memory()[1], kept
        finally:
            tracemalloc.stop()

    def test_census_path_builds_no_per_node_index(self):
        n = self.N

        def census_path():
            config = Configuration.uniform(n, "b")
            config.set_state(0, "a")
            census = config.census()
            return config, census, Configuration.from_census(Census({"a": n}, {}))

        peak, (config, census, result) = self.peak(census_path)
        assert census == Census({"b": n - 1, "a": 1}, {})
        assert result.state_counts() == {"a": n}
        assert peak < 4 * 10**6, peak
        # nodes_in_state scans the live states.
        assert config.nodes_in_state("a") == [0]
        config.set_state(1, "a")
        assert config.nodes_in_state("a") == [0, 1]

    def test_constructor_and_copy_build_no_per_node_index(self):
        states = ["b"] * self.N
        states[0] = "a"
        peak, config = self.peak(lambda: Configuration(states))
        assert peak < 2 * 10**6, peak
        assert config.nodes_in_state("a") == [0]
        peak, clone = self.peak(config.copy)
        assert peak < 2 * 10**6, peak
        assert clone.state_counts() == {"a": 1, "b": self.N - 1}


# ----------------------------------------------------------------------
# Model-based check against a naive reference
# ----------------------------------------------------------------------

#: States the machine draws from, one of them structured.
STATES = ("a", "b", "c", ("t", 0))


class _Model:
    """Naive reference configuration: a list of states plus a set of
    frozenset edges.  ``counts`` mirrors the key order of
    ``state_counts()``: a state enters when its first node does and
    leaves with its last."""

    def __init__(self, states, edges=(), counts=None):
        self.states = list(states)
        self.edges = {frozenset(e) for e in edges}
        if counts is None:
            counts = {}
            for s in self.states:
                counts[s] = counts.get(s, 0) + 1
        self.counts = dict(counts)

    def copy(self):
        return _Model(self.states, self.edges, self.counts)

    def set_state(self, u, state):
        old = self.states[u]
        if old == state:
            return
        self.counts[old] -= 1
        if not self.counts[old]:
            del self.counts[old]
        self.counts[state] = self.counts.get(state, 0) + 1
        self.states[u] = state

    def set_edge(self, u, v, on):
        if on:
            self.edges.add(frozenset((u, v)))
        else:
            self.edges.discard(frozenset((u, v)))

    def add_node(self, state):
        self.states.append(state)
        self.counts[state] = self.counts.get(state, 0) + 1
        return len(self.states) - 1

    def nodes_in_state(self, state):
        return [u for u, t in enumerate(self.states) if t == state]

    def census(self):
        edges = {}
        for e in self.edges:
            u, v = sorted(e)
            key = census_pair_key(self.states[u], self.states[v])
            edges[key] = edges.get(key, 0) + 1
        return Census(dict(self.counts), edges)


def _census_layout(counts, edges):
    """The documented ``from_census`` layout, written out naively: one
    contiguous block per state in ``repr`` order, and each edge class
    (in ``repr`` order of its key) on the lexicographically first pairs
    of the class."""
    ordered = sorted(counts, key=repr)
    offset, start, states = 0, {}, []
    for s in ordered:
        start[s] = offset
        states += [s] * counts[s]
        offset += counts[s]
    model_edges = []
    for a, b in sorted(edges, key=repr):
        block_a = range(start[a], start[a] + counts[a])
        block_b = range(start[b], start[b] + counts[b])
        if a == b:
            pairs = list(itertools.combinations(block_a, 2))
        else:
            pairs = [(u, v) for u in block_a for v in block_b]
        model_edges += pairs[: edges[(a, b)]]
    return _Model(states, model_edges, {s: counts[s] for s in ordered})


@st.composite
def censuses(draw):
    """A realizable census over :data:`STATES` with at least one node."""
    present = draw(st.lists(st.sampled_from(STATES), min_size=1, max_size=3,
                            unique=True))
    counts = {s: draw(st.integers(1, 3)) for s in present}
    probe = Census(counts)
    edges = {}
    for i, a in enumerate(present):
        for b in present[i:]:
            key = census_pair_key(a, b)
            cap = probe.class_pairs(*key)
            if cap:
                e = draw(st.integers(0, cap))
                if e:
                    edges[key] = e
    return Census(counts, edges)


class ConfigurationMachine(RuleBasedStateMachine):
    """Random ``set_state`` / ``set_edge`` / ``add_node`` / ``copy()`` /
    ``nodes_in_state`` sequences over every constructor, each
    configuration (the original and every copy) checked against its own
    reference model after every step.  A copy that shared mutable
    storage with its source, such as one adjacency set, would break the
    other's model."""

    def __init__(self):
        super().__init__()
        self.pairs: list[tuple[Configuration, _Model]] = []

    @initialize(
        states=st.lists(st.sampled_from(STATES), min_size=1, max_size=6),
        mask=st.lists(st.booleans(), min_size=15, max_size=15),
    )
    def from_states(self, states, mask):
        n = len(states)
        edges = [p for p, on in zip(itertools.combinations(range(n), 2), mask)
                 if on]
        self.pairs.append((Configuration(states, edges), _Model(states, edges)))

    @initialize(n=st.integers(1, 6), state=st.sampled_from(STATES))
    def from_uniform(self, n, state):
        self.pairs.append((Configuration.uniform(n, state), _Model([state] * n)))

    @initialize(census=censuses())
    def from_census(self, census):
        self.pairs.append((
            Configuration.from_census(census),
            _census_layout(census.counts, census.edges),
        ))

    def _pick(self, which):
        return self.pairs[which % len(self.pairs)]

    @rule(which=st.integers(0, 99), node=st.integers(0, 99),
          state=st.sampled_from(STATES))
    def set_state(self, which, node, state):
        cfg, model = self._pick(which)
        u = node % cfg.n
        cfg.set_state(u, state)
        model.set_state(u, state)

    @rule(which=st.integers(0, 99), a=st.integers(0, 99),
          b=st.integers(0, 99), on=st.booleans())
    def set_edge(self, which, a, b, on):
        cfg, model = self._pick(which)
        u, v = a % cfg.n, b % cfg.n
        if u == v:
            return
        cfg.set_edge(u, v, int(on))
        model.set_edge(u, v, on)

    @rule(which=st.integers(0, 99), state=st.sampled_from(STATES))
    def add_node(self, which, state):
        cfg, model = self._pick(which)
        assert cfg.add_node(state) == model.add_node(state)

    @rule(which=st.integers(0, 99))
    def copy(self, which):
        if len(self.pairs) < 6:
            cfg, model = self._pick(which)
            self.pairs.append((cfg.copy(), model.copy()))

    @rule(which=st.integers(0, 99), state=st.sampled_from(STATES))
    def nodes_in_state(self, which, state):
        cfg, model = self._pick(which)
        assert cfg.nodes_in_state(state) == model.nodes_in_state(state)

    @invariant()
    def matches_model(self):
        for cfg, model in self.pairs:
            n = len(model.states)
            assert cfg.n == n
            assert cfg.states() == model.states
            assert list(cfg.state_counts().items()) == list(model.counts.items())
            for s in STATES:
                assert cfg.count_in_state(s) == model.counts.get(s, 0)
                assert cfg.nodes_in_state(s) == model.nodes_in_state(s)
            for u in range(n):
                nbrs = {v for e in model.edges if u in e for v in e if v != u}
                assert cfg.degree(u) == len(nbrs)
                assert cfg.neighbors(u) == frozenset(nbrs)
                for v in range(n):
                    if v != u:
                        assert cfg.edge_state(u, v) == (
                            1 if frozenset((u, v)) in model.edges else 0
                        )
            assert cfg.n_active_edges == len(model.edges)
            assert set(cfg.active_edges()) == {
                tuple(sorted(e)) for e in model.edges
            }
            assert cfg.census() == model.census()


ConfigurationMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestConfigurationModel = ConfigurationMachine.TestCase
