"""Tests for dynamic populations and crash notifications: the
``arrive``/``recover``/``churn`` fault models, their per-engine
behavior (population growth, horizon gating, stream re-binding), the
``on_neighbor_crash`` notification hook, and the fault-tolerant global
line built on it."""

from __future__ import annotations

import random

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import SimulationError
from repro.core.faults import (
    DEAD,
    FAULTS,
    compact_survivors,
    compile_fault_plan,
    dead_nodes,
    survivors,
)
from repro.core.graphs import is_spanning_line
from repro.core.scenario import Scenario
from repro.core.simulator import make_engine, run_to_convergence
from repro.protocols import FTGlobalLine, GlobalStar, SimpleGlobalLine

ENGINES = ("indexed", "sequential")


def _run(protocol, n, seed, engine, scenario, max_steps=5_000_000):
    return run_to_convergence(
        protocol, n, seed=seed, engine=engine, scenario=scenario,
        max_steps=max_steps,
    )


class TestAddNode:
    def test_add_node_grows_population(self):
        config = Configuration.uniform(3, "q0")
        u = config.add_node("x")
        assert u == 3
        assert config.n == 4
        assert config.state(3) == "x"
        assert config.degree(3) == 0
        assert config.count_in_state("x") == 1

    def test_add_node_preserves_existing_structure(self):
        config = Configuration(["a", "b"], [(0, 1)])
        config.add_node("a")
        assert config.edge_state(0, 1) == 1
        assert config.count_in_state("a") == 2
        assert sorted(config.active_edges()) == [(0, 1)]


class TestPopulationFaultModels:
    def test_registry_names(self):
        assert {"arrive", "recover", "churn"} <= set(FAULTS.names())
        assert FAULTS.canonical("arrival:count=2") == "arrive:at=0,count=2"
        assert FAULTS.canonical("rejoin:count=1") == (
            "recover:at=0,count=1,delay=0"
        )
        assert FAULTS.canonical("turnover:rate=0.5") == "churn:rate=0.5"

    def test_arrival_plan_is_one_shot(self):
        plan = FAULTS.instantiate("arrive:count=3,at=50").compile(
            8, random.Random(0)
        )
        assert plan.horizon == 50
        assert plan.mutates_population
        assert plan.next_step(-1) == 50
        assert plan.next_step(50) is None
        actions = plan.actions_at(
            50, Configuration.uniform(8, "q0"), list(range(8))
        )
        assert len(actions) == 1
        assert (actions[0].kind, actions[0].count) == ("arrive", 3)

    def test_recover_plan_fires_after_delay(self):
        plan = FAULTS.instantiate("recover:count=2,at=100,delay=400").compile(
            8, random.Random(1)
        )
        assert plan.horizon == 500
        assert plan.next_step(-1) == 500
        config = Configuration(["q0", DEAD, DEAD, DEAD])
        actions = plan.actions_at(500, config, [0])
        assert len(actions) == 1
        assert actions[0].kind == "revive"
        assert set(actions[0].nodes) <= set(dead_nodes(config))
        assert len(actions[0].nodes) == 2

    def test_recover_with_nothing_dead_is_a_noop(self):
        plan = FAULTS.instantiate("recover:count=2,at=10").compile(
            4, random.Random(0)
        )
        config = Configuration.uniform(4, "q0")
        assert plan.actions_at(10, config, list(range(4))) == []

    def test_churn_plan_pairs_crash_and_arrival(self):
        model = FAULTS.instantiate("churn:rate=0.01")
        assert not model.bounded
        plan = model.compile(8, random.Random(2))
        assert plan.mutates_population
        first = plan.next_step(-1)
        assert first >= 1
        actions = plan.actions_at(
            first, Configuration.uniform(8, "q0"), list(range(8))
        )
        assert [a.kind for a in actions] == ["crash", "arrive"]
        assert len(actions[0].nodes) == 1 and actions[1].count == 1

    def test_composite_plan_propagates_population_flag(self):
        models = (
            FAULTS.instantiate("crash:count=1,at=10"),
            FAULTS.instantiate("arrive:count=1,at=20"),
        )
        plan = compile_fault_plan(models, 8, seed=0)
        assert plan.mutates_population
        assert plan.horizon == 20
        crash_only = compile_fault_plan(
            (FAULTS.instantiate("crash:count=1,at=10"),), 8, seed=0
        )
        assert not crash_only.mutates_population

    def test_validation(self):
        with pytest.raises(Exception):
            FAULTS.instantiate("arrive:count=0")
        with pytest.raises(Exception):
            FAULTS.instantiate("churn:rate=1.5")
        with pytest.raises(Exception):
            FAULTS.instantiate("recover:count=1,delay=-5")

    def test_unbounded_churn_detected_by_scenario(self):
        assert Scenario(faults=("churn:rate=0.01",)).has_unbounded_faults
        assert not Scenario(faults=("arrive:count=2,at=5",)).has_unbounded_faults


class TestArrivalsThroughEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_arrivals_join_and_get_built_in(self, engine):
        protocol = SimpleGlobalLine()
        result = _run(
            protocol, 6, 3, engine,
            Scenario(faults=("arrive:count=3,at=200",)),
        )
        assert result.converged
        assert result.config.n == 9
        assert len(survivors(result.config)) == 9
        assert protocol.target_reached(result.config)
        # The arrival horizon gates stabilization: the run cannot have
        # declared itself stable before the nodes joined.
        assert result.steps >= 200

    @pytest.mark.parametrize("engine", ENGINES)
    def test_arrival_past_stabilization_reopens_the_run(self, engine):
        # Global-Star stabilizes quickly at n=6; an arrival at 50_000
        # lands long after, so the horizon gate must keep the run alive
        # and the new node must be wired into the star.
        protocol = GlobalStar()
        result = _run(
            protocol, 6, 1, engine,
            Scenario(faults=("arrive:count=1,at=50000",)),
        )
        assert result.converged
        assert result.steps >= 50_000
        assert result.config.n == 7
        assert protocol.target_reached(result.config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_arrival_at_zero_grows_before_first_pick(self, engine):
        protocol = SimpleGlobalLine()
        result = _run(
            protocol, 4, 5, engine, Scenario(faults=("arrive:count=2,at=0",)),
        )
        assert result.converged
        assert result.config.n == 6
        assert protocol.target_reached(result.config)

    def test_sequential_rebinds_round_robin_stream(self):
        # Population growth re-derives the scheduler's pair stream; the
        # deterministic round-robin scheduler must start covering the
        # new node afterwards.
        protocol = SimpleGlobalLine()
        result = _run(
            protocol, 6, 2, "sequential",
            Scenario(
                scheduler="round-robin", faults=("arrive:count=2,at=100",),
            ),
        )
        assert result.converged
        assert result.config.n == 8
        assert protocol.target_reached(result.config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_near_extinction_then_arrival_recovers(self, engine):
        # Crash to a single survivor: no alive pair can advance the
        # clock, so engines must jump straight to the pending arrival
        # instead of declaring quiescence (or spinning forever).
        protocol = SimpleGlobalLine()
        result = _run(
            protocol, 6, 7, engine,
            Scenario(
                faults=("crash:count=5,at=0", "arrive:count=4,at=1000",),
            ),
        )
        assert result.converged
        assert result.config.n == 10
        alive = survivors(result.config)
        assert len(alive) == 5
        assert is_spanning_line(result.config.active_subgraph(alive))


class TestRecoveryThroughEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_crashed_nodes_rejoin_fresh(self, engine):
        # Mid-construction crashes wreck line fragments; the
        # fault-tolerant protocol dissolves the damage, and the
        # recovered nodes rejoin as fresh q0 material — the final line
        # must span the whole (fully recovered) population.
        protocol = FTGlobalLine()
        result = _run(
            protocol, 10, 11, engine,
            Scenario(
                faults=(
                    "crash:count=3,at=100",
                    "recover:count=3,at=100,delay=2000",
                ),
            ),
        )
        assert result.converged
        assert result.steps >= 2100
        assert len(survivors(result.config)) == 10
        assert not dead_nodes(result.config)
        assert protocol.target_reached(result.config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_partial_recovery(self, engine):
        protocol = SimpleGlobalLine()
        result = _run(
            protocol, 8, 4, engine,
            Scenario(
                faults=(
                    "crash:count=3,at=0",
                    "recover:count=1,at=0,delay=500",
                ),
            ),
        )
        assert result.converged
        assert len(survivors(result.config)) == 6
        assert len(dead_nodes(result.config)) == 2


class TestChurnThroughEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_churn_keeps_alive_count_invariant(self, engine):
        # Paired departures/arrivals: the alive population stays at the
        # starting size while total slots grow by one per churn event.
        # The rate is high enough that churn fires long before the line
        # could complete, so at least one event lands in every run.
        protocol = FTGlobalLine()
        result = _run(
            protocol, 10, 9, engine,
            Scenario(faults=("churn:rate=0.1",)), max_steps=1_000,
        )
        alive = survivors(result.config)
        assert len(alive) == 10
        churned = result.config.n - 10
        assert churned == len(dead_nodes(result.config))
        assert churned > 0, "budget long enough that churn fired"

    def test_churn_requires_budget_in_spec(self):
        from repro.analysis.runner import ExperimentError, ExperimentSpec

        with pytest.raises(ExperimentError, match="max_steps"):
            ExperimentSpec(
                protocol="ft-global-line", sizes=(8,), trials=1,
                scenario=Scenario(faults=("churn:rate=0.01",)),
            )


class TestCrashNotifications:
    def test_default_protocols_ignore_notifications(self):
        assert SimpleGlobalLine().on_neighbor_crash("q2") is None

    def test_ft_line_notification_map(self):
        protocol = FTGlobalLine()
        assert protocol.on_neighbor_crash("q1") == "q0"
        assert protocol.on_neighbor_crash("l") == "q0"
        assert protocol.on_neighbor_crash("q2") == "r"
        assert protocol.on_neighbor_crash("w") == "r"
        assert protocol.on_neighbor_crash("r") == "q0"
        # Free nodes have nothing to repair: the q0 -> q0 no-op entry
        # exists so the verifier's missing-hook lint sees every
        # edge-capable state covered (returning None means "unhandled").
        assert protocol.on_neighbor_crash("q0") == "q0"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_notified_neighbors_change_state(self, engine):
        # Crash mid-construction: notifications must turn exposed
        # fragment ends into reset carriers, and every carrier must be
        # consumed (no stranded fragments, no leftover r/q0 material).
        protocol = FTGlobalLine()
        result = _run(
            protocol, 6, 13, engine,
            Scenario(faults=("crash:count=2,at=400",)),
        )
        assert result.converged
        alive = survivors(result.config)
        assert len(alive) == 4
        assert is_spanning_line(result.config.active_subgraph(alive))
        counts = result.config.state_counts()
        assert counts.get("r", 0) == 0 and counts.get("q0", 0) == 0


class TestFTGlobalLine:
    def test_registry_spec(self):
        from repro.protocols import registry

        protocol = registry.instantiate("ft-global-line")
        assert isinstance(protocol, FTGlobalLine)
        assert registry.canonical_spec("fault-tolerant-global-line") == (
            "ft-global-line"
        )

    def test_faultless_run_matches_simple_line_target(self):
        # Without crashes the reset state is unreachable: the protocol
        # is Simple-Global-Line plus dead rules.
        protocol = FTGlobalLine()
        result = run_to_convergence(protocol, 12, seed=0)
        assert result.converged
        assert protocol.target_reached(result.config)
        assert result.config.count_in_state("r") == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_survives_mid_run_crashes_on_every_engine(self, engine):
        protocol = FTGlobalLine()
        for seed in range(3):
            result = _run(
                protocol, 12, seed, engine,
                Scenario(faults=("crash:count=3,at=300",)),
            )
            assert result.converged
            assert protocol.target_reached(
                compact_survivors(result.config)
            ), f"seed {seed} did not restabilize to a line"

    def test_survives_repeated_crash_waves(self):
        protocol = FTGlobalLine()
        scenario = Scenario(
            faults=(
                "crash:count=2,at=200",
                "crash:count=2,at=1500",
                "crash:count=1,at=4000",
            ),
        )
        for seed in range(3):
            result = _run(protocol, 14, seed, "indexed", scenario)
            assert result.converged
            assert len(survivors(result.config)) == 9
            assert protocol.target_reached(compact_survivors(result.config))

    def test_simple_line_is_not_fault_tolerant(self):
        # The contrast that motivates the protocol: under the same
        # mid-run crashes the plain line frequently strands leaderless
        # fragments (or never re-stabilizes at all).
        protocol = SimpleGlobalLine()
        failures = 0
        for seed in range(8):
            result = _run(
                protocol, 16, seed, "indexed",
                Scenario(faults=("crash:count=3,at=300",)),
                max_steps=2_000_000,
            )
            ok = result.converged and protocol.target_reached(
                compact_survivors(result.config)
            )
            failures += not ok
        assert failures > 0


class TestEdgeLossRecovery:
    """The flipped blind-spot regression: before ``on_edge_loss``
    landed, environment edge deletions wrecked the fault-tolerant line
    exactly like the plain one (the hook existed for crashes only).
    Notified deletions are now part of its repair surface, so these
    assert recovery — if the hook wiring regresses, they flip back."""

    def test_ft_line_edge_loss_mirrors_the_crash_map(self):
        protocol = FTGlobalLine()
        for state in ("q0", "q1", "q2", "l", "w", "r"):
            assert protocol.on_edge_loss(state) == (
                protocol.on_neighbor_crash(state)
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ft_line_recovers_from_a_scheduled_cut(self, engine):
        # Build the line to completion, then cut one of its actual
        # edges and require a re-stabilized spanning line.
        protocol = FTGlobalLine()
        built = run_to_convergence(protocol, 8, seed=21)
        assert protocol.target_reached(built.config)
        u, v = sorted(built.config.active_edges())[1]
        scenario = Scenario(faults=(f"cut:edges={u}-{v},at=10",))
        sim = make_engine(engine, 22, scenario)
        result = sim.run(
            protocol, 8, 5_000_000, config=built.config,
            require_convergence=False,
        )
        assert result.converged
        assert protocol.target_reached(result.config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ft_line_recovers_from_sustained_edge_drop(self, engine):
        protocol = FTGlobalLine()
        scenario = Scenario(faults=("edge-drop:rate=0.0005",))
        for seed in range(2):
            result = _run(protocol, 10, seed, engine, scenario)
            assert result.converged
            assert protocol.target_reached(result.config), (
                f"seed {seed} did not re-stabilize after notified drops"
            )

    def test_simple_line_is_still_blind_to_edge_loss(self):
        # The contrast pin: without the hook, cutting one interior edge
        # of a finished plain line is unrepairable — no rule ever
        # reconnects two q2 stubs.
        protocol = SimpleGlobalLine()
        built = run_to_convergence(protocol, 8, seed=21)
        interior = [
            (u, v) for u, v in sorted(built.config.active_edges())
            if built.config.state(u) == "q2" and built.config.state(v) == "q2"
        ]
        scenario = Scenario(faults=(f"cut:edges={interior[0][0]}-{interior[0][1]},at=10",))
        sim = make_engine("indexed", 22, scenario)
        result = sim.run(
            protocol, 8, 2_000_000, config=built.config,
            require_convergence=False,
        )
        assert not protocol.target_reached(result.config)


class TestJoinStateValidation:
    def test_population_events_need_an_initial_state(self):
        protocol = SimpleGlobalLine()
        protocol.initial_state = None  # structured-protocol shape
        with pytest.raises(SimulationError, match="initial_state"):
            _run(
                protocol, 6, 0, "indexed",
                Scenario(faults=("arrive:count=1,at=10",)),
                max_steps=100_000,
            )
