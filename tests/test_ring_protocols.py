"""Tests for Global-Ring (Protocol 5, with the journal bugfix) and 2RC
(Protocol 6, Theorem 10)."""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_spanning_ring
from repro.core.simulator import IndexedSimulator
from repro.protocols import GlobalRing, TwoRegularConnected
from tests.conftest import converge, converge_sequential, fair_schedulers


class TestGlobalRing:
    def test_size_matches_state_listing(self):
        # Q = {q0, q1, q2, l, w, l', l'', q2', q2'', l-bar}: 10 states.
        assert GlobalRing().size == 10

    def test_constructs_spanning_ring(self, seeds):
        protocol = GlobalRing()
        for seed in seeds:
            result = converge(protocol, 10, seed=seed)
            assert result.converged
            assert is_spanning_ring(result.config.output_graph()), seed

    def test_various_sizes(self):
        for n in (3, 4, 5, 6, 12):
            result = converge(GlobalRing(), n, seed=n)
            assert is_spanning_ring(result.config.output_graph()), n

    def test_under_fair_schedulers(self):
        n = 7
        for scheduler in fair_schedulers(n):
            result = converge_sequential(
                GlobalRing(), n, scheduler, seed=5, max_steps=5_000_000
            )
            assert result.converged, scheduler
            assert is_spanning_ring(result.config.output_graph())

    def test_premature_ring_reopens(self):
        """A closed non-spanning ring coexisting with another component
        must reopen (the blocked endpoints detect the outsider via the
        double-primed states)."""
        protocol = GlobalRing()
        # Hand-build: a blocked 3-ring (lp, q2p, q2) plus one isolated q0.
        config = Configuration(
            ["lp", "q2p", "q2", "q0"], [(0, 1), (1, 2), (2, 0)]
        )
        result = IndexedSimulator(seed=1).run(
            protocol, 4, None, config=config
        )
        assert result.converged
        assert is_spanning_ring(result.config.output_graph())

    def test_length_one_lines_cannot_close(self):
        """The journal fix: a fresh 2-node line has the guarded lb leader
        and no (lb, q1) closing rule exists."""
        protocol = GlobalRing()
        assert not protocol.is_effective("lb", "q1", 0)
        assert protocol.is_effective("l", "q1", 0)

    def test_blocked_endpoints_ignore_plain_q2(self):
        """A spanning ring must NOT reopen: its own internal q2 nodes are
        not detection states for the blocked endpoints."""
        protocol = GlobalRing()
        assert not protocol.is_effective("lp", "q2", 0)
        assert not protocol.is_effective("q2p", "q2", 0)


class TestTwoRegularConnected:
    def test_6_states(self):
        assert TwoRegularConnected().size == 6

    def test_constructs_spanning_ring(self, seeds):
        protocol = TwoRegularConnected()
        for seed in seeds:
            result = converge(protocol, 9, seed=seed)
            assert result.converged
            assert is_spanning_ring(result.config.output_graph()), seed

    def test_various_sizes(self):
        for n in (3, 4, 5, 8, 14):
            result = converge(TwoRegularConnected(), n, seed=n * 7)
            assert is_spanning_ring(result.config.output_graph()), n

    def test_under_fair_schedulers(self):
        n = 6
        for scheduler in fair_schedulers(n):
            result = converge_sequential(
                TwoRegularConnected(), n, scheduler, seed=9, max_steps=5_000_000
            )
            assert result.converged, scheduler
            assert is_spanning_ring(result.config.output_graph())

    def test_cycle_coexisting_with_nodes_opens(self):
        """The l2 -> l3 -> l2 mechanism: a closed cycle must absorb an
        isolated node rather than stay a separate cycle."""
        # A 3-cycle with leader l2 plus two isolated q0 nodes.
        config = Configuration(
            ["l2", "q2", "q2", "q0", "q0"], [(0, 1), (1, 2), (2, 0)]
        )
        protocol = TwoRegularConnected()
        result = IndexedSimulator(seed=2).run(protocol, 5, None, config=config)
        assert result.converged
        assert is_spanning_ring(result.config.output_graph())

    def test_stabilized_requires_unique_leader(self):
        protocol = TwoRegularConnected()
        config = Configuration(
            ["l2", "q2", "q2", "l2", "q2", "q2"],
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        )
        assert not protocol.stabilized(config)

    def test_degree_state_invariant_at_stabilization(self, seeds):
        protocol = TwoRegularConnected()
        for seed in seeds:
            result = converge(protocol, 8, seed=seed)
            config = result.config
            for u in range(config.n):
                state = config.state(u)
                assert config.degree(u) == int(state[1:]), (u, state)
