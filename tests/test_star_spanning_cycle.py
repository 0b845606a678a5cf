"""Tests for Global-Star, Spanning-Network and Cycle-Cover
(Protocols 3-4, Theorems 1, 5, 6, 7)."""

from __future__ import annotations

from repro.core.graphs import is_cycle_cover, is_spanning_network, is_spanning_star
from repro.core.simulator import IndexedSimulator
from repro.core.trace import Trace
from repro.protocols import CycleCover, GlobalStar, SpanningNetwork
from tests.conftest import converge, converge_sequential, fair_schedulers


class TestGlobalStar:
    def test_optimal_size_2_states(self):
        assert GlobalStar().size == 2

    def test_constructs_star(self, seeds):
        protocol = GlobalStar()
        for seed in seeds:
            result = converge(protocol, 14, seed=seed)
            assert is_spanning_star(result.config.output_graph())

    def test_small_populations(self):
        for n in (2, 3, 4):
            result = converge(GlobalStar(), n, seed=n)
            assert is_spanning_star(result.config.output_graph())

    def test_under_fair_schedulers(self):
        n = 10
        for scheduler in fair_schedulers(n):
            result = converge_sequential(GlobalStar(), n, scheduler, seed=2)
            assert result.converged
            assert is_spanning_star(result.config.output_graph())

    def test_centers_only_decrease(self):
        """Figure 1's progression: the number of black (center) nodes
        never increases, and ends at exactly one."""
        trace = Trace(snapshot_predicate=lambda step, cfg: True)
        result = IndexedSimulator(seed=4).run(GlobalStar(), 12, None, trace=trace)
        assert result.converged
        centers = [
            cfg.state_counts().get("c", 0) for _, cfg in trace.snapshots
        ]
        assert all(a >= b for a, b in zip(centers, centers[1:]))
        assert centers[-1] == 1

    def test_final_configuration_is_quiescent(self):
        result = converge(GlobalStar(), 9, seed=1)
        # stabilized certificate fired, but the config is also quiescent:
        # no effective pair remains.
        protocol = GlobalStar()
        config = result.config
        for u in range(config.n):
            for v in range(u + 1, config.n):
                assert not protocol.is_effective(
                    config.state(u), config.state(v), config.edge_state(u, v)
                )


class TestSpanningNetwork:
    def test_2_states(self):
        assert SpanningNetwork().size == 2

    def test_constructs_spanning_network(self, seeds):
        protocol = SpanningNetwork()
        for seed in seeds:
            result = converge(protocol, 13, seed=seed)
            assert is_spanning_network(result.config.output_graph())

    def test_every_conversion_activates_an_edge(self):
        trace = Trace()
        result = IndexedSimulator(seed=8).run(SpanningNetwork(), 10, None, trace=trace)
        assert result.converged
        assert all(e.activated for e in trace.events)


class TestCycleCover:
    def test_3_states(self):
        assert CycleCover().size == 3

    def test_constructs_cycle_cover_with_waste_2(self, seeds):
        protocol = CycleCover()
        for seed in seeds:
            result = converge(protocol, 12, seed=seed)
            assert is_cycle_cover(result.config.output_graph(), waste=2)

    def test_odd_and_small_sizes(self):
        for n in (3, 4, 5, 7, 9):
            result = converge(CycleCover(), n, seed=n)
            assert is_cycle_cover(result.config.output_graph(), waste=2), n

    def test_degree_state_invariant(self):
        """Theorem 5's invariant: a node in state qi has degree i."""
        trace = Trace(snapshot_predicate=lambda step, cfg: True)
        result = IndexedSimulator(seed=3).run(CycleCover(), 11, None, trace=trace)
        assert result.converged
        for _, config in trace.snapshots:
            for u in range(config.n):
                state = config.state(u)
                assert config.degree(u) == int(state[1]), (u, state)

    def test_under_fair_schedulers(self):
        n = 9
        for scheduler in fair_schedulers(n):
            result = converge_sequential(CycleCover(), n, scheduler, seed=6)
            assert result.converged
            assert is_cycle_cover(result.config.output_graph(), waste=2)

    def test_waste_shape(self):
        """The waste is at most one isolated node or one matched pair."""
        for seed in range(10):
            result = converge(CycleCover(), 10, seed=seed)
            graph = result.config.output_graph()
            leftover = [u for u, d in graph.degree() if d != 2]
            if len(leftover) == 2:
                u, v = leftover
                assert graph.degree(u) == graph.degree(v)
            assert len(leftover) <= 2
