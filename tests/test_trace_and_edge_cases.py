"""Edge cases: traces, run results, tiny populations, repr surfaces."""

from __future__ import annotations

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.simulator import (
    IndexedSimulator,
    make_engine,
    run_to_convergence,
)
from repro.core.trace import Event, Trace
from repro.protocols import CycleCover, GlobalStar, SimpleGlobalLine


class TestTrace:
    def test_max_events_cap(self):
        trace = Trace(max_events=2)
        config = Configuration(["a", "b"])
        for step in range(5):
            trace.record(Event(step, 0, 1, "a", "a", "b", "b", 0, 1), config)
        assert len(trace) == 2

    def test_event_classification(self):
        activation = Event(1, 0, 1, "a", "a", "b", "b", 0, 1)
        deactivation = Event(2, 0, 1, "a", "a", "b", "b", 1, 0)
        state_only = Event(3, 0, 1, "a", "x", "b", "b", 1, 1)
        assert activation.activated and not activation.deactivated
        assert deactivation.deactivated and not deactivation.activated
        assert not state_only.edge_changed

    def test_last_edge_change_step(self):
        trace = Trace()
        config = Configuration(["a", "b"])
        trace.record(Event(3, 0, 1, "a", "a", "b", "b", 0, 1), config)
        trace.record(Event(9, 0, 1, "a", "x", "b", "b", 1, 1), config)
        assert trace.last_edge_change_step() == 3

    def test_snapshot_predicate_filtering(self):
        trace = Trace(snapshot_predicate=lambda step, cfg: step > 5)
        config = Configuration(["a", "b"])
        trace.record(Event(2, 0, 1, "a", "a", "b", "b", 0, 1), config)
        trace.record(Event(8, 0, 1, "a", "a", "b", "b", 1, 0), config)
        assert [step for step, _ in trace.snapshots] == [8]


class TestTinyPopulations:
    def test_n2_line(self):
        result = run_to_convergence(SimpleGlobalLine(), 2, seed=0)
        assert result.converged
        assert result.config.n_active_edges == 1

    def test_n2_star(self):
        result = run_to_convergence(GlobalStar(), 2, seed=0)
        assert GlobalStar().target_reached(result.config)

    def test_n1_rejected_by_engine(self):
        with pytest.raises(SimulationError):
            IndexedSimulator(seed=0).run(GlobalStar(), 1, None)

    def test_n2_cycle_cover_is_all_waste(self):
        result = run_to_convergence(CycleCover(), 2, seed=0)
        assert result.converged
        assert CycleCover().target_reached(result.config)


class TestPopulationCheck:
    """One check at the top of the run loop all three engines share
    refuses what no engine can run: fewer than 2 nodes, a configuration
    of the wrong size, and a configuration holding crashed nodes (the
    clock counts picks among alive pairs from the first step, so a node
    crashes through a fault, not through its start state)."""

    @staticmethod
    def engine(name):
        from repro.core.counting import CountSimulator
        from repro.core.simulator import make_engine

        if name == "count-leap":  # the census walk, at any n
            return CountSimulator(seed=1, leap_threshold=0)
        return make_engine(name, 1)

    ENGINES = ("sequential", "indexed", "count", "count-leap")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ["one-way-epidemic", "simple-global-line"])
    def test_one_node_is_refused(self, engine, name):
        from repro.protocols import registry

        protocol = registry.instantiate(name)
        with pytest.raises(SimulationError, match="need at least 2 nodes"):
            self.engine(engine).run(protocol, 1, 100)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_wrongly_sized_configuration_is_refused(self, engine):
        from repro.protocols import registry

        protocol = registry.instantiate("one-way-epidemic")
        config = protocol.initial_configuration(8)
        with pytest.raises(SimulationError, match="8 nodes, expected 12"):
            self.engine(engine).run(protocol, 12, 100, config=config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_configuration_holding_dead_nodes_is_refused(self, engine):
        from repro.core.faults import DEAD
        from repro.core.scenario import Scenario
        from repro.protocols import registry

        protocol = registry.instantiate("one-to-one-elimination")
        config = Scenario(init="doped:state=__dead__,count=4").build_initial(
            protocol, 12
        )
        assert config.count_in_state(DEAD) == 4
        with pytest.raises(SimulationError, match="holds 4 __dead__ node"):
            self.engine(engine).run(protocol, 12, 10_000, config=config)


class TestRunResult:
    def test_convergence_time_alias(self):
        result = run_to_convergence(GlobalStar(), 8, seed=3)
        assert result.convergence_time == result.last_output_change_step

    def test_already_stable_initial_configuration(self):
        protocol = GlobalStar()
        # a hand-built stable star: running from it takes 0 steps
        config = Configuration(["c", "p", "p"], [(0, 1), (0, 2)])
        result = IndexedSimulator(seed=0).run(protocol, 3, None, config=config)
        assert result.converged
        assert result.steps == 0

    def test_convergence_error_reports_steps(self):
        with pytest.raises(ConvergenceError) as info:
            IndexedSimulator(seed=0).run(
                GlobalStar(), 30, max_steps=3, require_convergence=True
            )
        assert info.value.steps == 3


class TestReprSurfaces:
    def test_protocol_repr(self):
        assert "Global-Star" in repr(GlobalStar())

    def test_configuration_repr(self):
        config = Configuration(["a", "a"], [(0, 1)])
        text = repr(config)
        assert "n=2" in text and "active_edges=1" in text

    def test_machine_repr(self):
        from repro.tm import even_edges_machine

        assert "TM-even-edges" in repr(even_edges_machine())

    def test_decider_repr(self):
        from repro.tm import connected_decider

        assert "connected" in repr(connected_decider())


class TestCheckIntervalThrottling:
    @pytest.mark.parametrize("engine", ["sequential", "indexed", "count"])
    @pytest.mark.parametrize("interval", [0, -1, True, 2.5, "4"])
    def test_malformed_check_interval_is_refused(self, engine, interval):
        """Only an ``int`` >= 1 spaces the polls; anything else is
        refused before the run starts."""
        sim = make_engine(engine, seed=1)
        with pytest.raises(SimulationError, match="check_interval"):
            sim.run(GlobalStar(), 8, 1000, check_interval=interval)

    def test_results_independent_of_check_interval(self):
        """The stabilization certificate may fire later with throttled
        checks, but the constructed network is the same."""
        r1 = IndexedSimulator(seed=6).run(GlobalStar(), 12, None, check_interval=1)
        r2 = IndexedSimulator(seed=6).run(GlobalStar(), 12, None, check_interval=50)
        assert GlobalStar().target_reached(r1.config)
        assert GlobalStar().target_reached(r2.config)
