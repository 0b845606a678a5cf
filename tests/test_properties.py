"""Property-based tests on the core engine using hypothesis.

The central property: for *any* (well-formed) rule table, the event-driven
engine only reports quiescence when no effective pair exists under a
brute-force check, and the configurations it produces are reachable under
the model's semantics (states only change through defined rules).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configuration import Configuration
from repro.core.protocol import TableProtocol
from repro.core.simulator import IndexedSimulator, apply_interaction

STATES = ["s0", "s1", "s2"]


@st.composite
def rule_tables(draw):
    """Random small rule tables over 3 states, one orientation per key."""
    rules = {}
    keys = draw(
        st.sets(
            st.tuples(
                st.sampled_from(STATES),
                st.sampled_from(STATES),
                st.sampled_from([0, 1]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    for a, b, c in keys:
        if (b, a, c) in rules:
            continue
        rhs = (
            draw(st.sampled_from(STATES)),
            draw(st.sampled_from(STATES)),
            draw(st.sampled_from([0, 1])),
        )
        rules[(a, b, c)] = rhs
    return rules


def brute_force_effective_pairs(protocol, config):
    pairs = set()
    for u in range(config.n):
        for v in range(u + 1, config.n):
            if protocol.is_effective(
                config.state(u), config.state(v), config.edge_state(u, v)
            ):
                pairs.add((u, v))
    return pairs


class TestEngineSoundness:
    @settings(max_examples=60, deadline=None)
    @given(rules=rule_tables(), seed=st.integers(0, 2**31), n=st.integers(3, 7))
    def test_quiescence_means_no_effective_pair(self, rules, seed, n):
        protocol = TableProtocol("rand", "s0", rules)
        sim = IndexedSimulator(seed=seed)
        result = sim.run(protocol, n, max_steps=5000)
        if result.stop_reason == "quiescent":
            assert not brute_force_effective_pairs(protocol, result.config)

    @settings(max_examples=60, deadline=None)
    @given(rules=rule_tables(), seed=st.integers(0, 2**31), n=st.integers(3, 6))
    def test_steps_accounting(self, rules, seed, n):
        protocol = TableProtocol("rand", "s0", rules)
        result = IndexedSimulator(seed=seed).run(protocol, n, max_steps=3000)
        assert result.effective_steps <= result.steps
        assert result.last_output_change_step <= result.last_change_step
        assert result.last_change_step <= result.steps

    @settings(max_examples=40, deadline=None)
    @given(rules=rule_tables(), seed=st.integers(0, 2**31))
    def test_engines_reach_states_closed_under_rules(self, rules, seed):
        """Every state present at the end must be reachable: either the
        initial state or the output of some rule."""
        protocol = TableProtocol("rand", "s0", rules)
        result = IndexedSimulator(seed=seed).run(protocol, 5, max_steps=2000)
        producible = {"s0"}
        for dist in protocol.rules().values():
            for _, out in dist:
                producible.update((out.a, out.b))
        for state in result.config.states():
            assert state in producible


class TestInteractionSemantics:
    @settings(max_examples=60, deadline=None)
    @given(
        rules=rule_tables(),
        seed=st.integers(0, 2**31),
        edge=st.sampled_from([0, 1]),
        a=st.sampled_from(STATES),
        b=st.sampled_from(STATES),
    )
    def test_apply_matches_table(self, rules, seed, edge, a, b):
        """Applying an interaction yields exactly a rule's outcome (in
        one of the two orientations when symmetric)."""
        protocol = TableProtocol("rand", "s0", rules)
        config = Configuration([a, b])
        if edge:
            config.set_edge(0, 1, 1)
        rng = random.Random(seed)
        before = (a, b, edge)
        result = apply_interaction(protocol, config, 0, 1, rng, step=1)
        after = (config.state(0), config.state(1), config.edge_state(0, 1))
        if result is None:
            assert after == before
            return
        dist = protocol.delta(a, b, edge)
        swapped = False
        if dist is None:
            dist = protocol.delta(b, a, edge)
            swapped = True
        assert dist is not None
        allowed = set()
        for _, out in dist:
            if swapped:
                allowed.add((out.b, out.a, out.edge))
            else:
                allowed.add((out.a, out.b, out.edge))
                if a == b and out.a != out.b:
                    allowed.add((out.b, out.a, out.edge))
        assert after in allowed


class TestConfigurationProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        edges=st.sets(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=12,
        )
    )
    def test_edge_count_consistent(self, edges):
        config = Configuration.uniform(8, "a")
        for u, v in edges:
            config.set_edge(u, v, 1)
        unordered = {frozenset(e) for e in edges}
        assert config.n_active_edges == len(unordered)
        assert sum(config.degree(u) for u in range(8)) == 2 * len(unordered)

    @settings(max_examples=50, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=10,
        )
    )
    def test_output_graph_matches_edges(self, edges):
        config = Configuration.uniform(6, "a")
        for u, v in edges:
            config.set_edge(u, v, 1)
        graph = config.output_graph()
        for u, v in graph.edges():
            assert config.edge_state(u, v) == 1
        assert graph.number_of_edges() == config.n_active_edges
