"""The adversarial fault axis: byzantine nodes, per-edge failure,
targeted schedulers, edge-loss notifications, and the redundancy-coded
line constructor.

Complements ``test_population_faults.py`` (crash / arrive / churn) with
the strictly nastier adversaries: state lies, silent edge-flag lies,
independent link failure, and schedulers that read the live
configuration to starve whoever currently leads.
"""

from __future__ import annotations

import random

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import SimulationError
from repro.core.faults import DEAD, FAULTS, compact_survivors
from repro.core.graphs import is_spanning_line
from repro.core.params import SpecError
from repro.core.protocol import Protocol
from repro.core.scenario import Scenario, resolve_engine
from repro.core.scheduler import SCHEDULERS
from repro.core.simulator import ENGINES, make_engine, run_to_convergence
from repro.protocols import RCGlobalLine, registry
from repro.protocols.registry import RegistryError

ALL_ENGINES = sorted(ENGINES)


class Recorder(Protocol):
    """Inert line of ``a`` nodes that marks edge-loss notifications.

    No rule ever fires, so the only way a node can leave ``a`` is the
    ``on_edge_loss`` write-back — which makes notification delivery
    directly observable in the final configuration.
    """

    name = "recorder"
    initial_state = "a"
    states = frozenset({"a", "x"})

    def delta(self, a, b, c):
        return None

    def on_edge_loss(self, state):
        return "x" if state == "a" else None

    def initial_configuration(self, n):
        return Configuration(
            ["a"] * n, [(u, u + 1) for u in range(n - 1)]
        )


# ----------------------------------------------------------------------
# Byzantine faults
# ----------------------------------------------------------------------

class TestByzantineFaults:
    def test_registry_spec_and_alias(self):
        assert FAULTS.canonical("byz:count=2") == (
            "byzantine:count=2,lie=0.5,mode=random-state,rate=0.0001"
        )

    def test_validation_errors_are_registry_shaped(self):
        with pytest.raises(SpecError, match="must be >= 1"):
            FAULTS.instantiate("byzantine:count=0")
        with pytest.raises(SpecError, match="expects probability"):
            FAULTS.instantiate("byzantine:rate=1.5")
        with pytest.raises(SimulationError, match="unknown byzantine mode"):
            FAULTS.instantiate("byzantine:mode=weird")
        with pytest.raises(SimulationError, match="edge-lie probability"):
            FAULTS.instantiate("byzantine:lie=2")

    def test_compile_requires_the_protocol_under_attack(self):
        model = FAULTS.instantiate("byzantine")
        with pytest.raises(SimulationError, match="protocol-aware"):
            model.compile(8, random.Random(0))

    def test_random_state_needs_enumerable_states(self):
        class Structured(Protocol):
            name = "structured"
            initial_state = ("a", 0)

            def delta(self, a, b, c):
                return None

        model = FAULTS.instantiate("byzantine:mode=random-state")
        with pytest.raises(SimulationError, match="enumerable"):
            model.compile(8, random.Random(0), protocol=Structured())

    def test_always_leader_needs_leader_states(self):
        model = FAULTS.instantiate("byzantine:mode=always-leader")
        with pytest.raises(SimulationError, match="leader_states"):
            model.compile(8, random.Random(0), protocol=Recorder())

    def test_replay_mode_replays_the_previous_lie_snapshot(self):
        model = FAULTS.instantiate("byzantine:count=1,mode=replay,lie=0,rate=0.5")
        plan = model.compile(1, random.Random(3), protocol=Recorder())
        config = Configuration(["a"], [])
        step = plan.next_step(-1)
        first = plan.actions_at(step, config, alive=[0])
        # First lie falls back to the initial state...
        assert [a.kind for a in first] == ["corrupt"]
        assert first[0].states == ("a",)
        # ...then replays whatever the victim held at the previous lie.
        config.set_state(0, "x")
        step = plan.next_step(step)
        second = plan.actions_at(step, config, alive=[0])
        assert second[0].states == ("a",)
        config.set_state(0, "a")
        step = plan.next_step(step)
        third = plan.actions_at(step, config, alive=[0])
        assert third[0].states == ("x",)

    def test_always_leader_claims_a_leader_state(self):
        ft = registry.instantiate("ft-global-line")
        model = FAULTS.instantiate(
            "byzantine:count=1,mode=always-leader,lie=0,rate=0.5"
        )
        plan = model.compile(4, random.Random(0), protocol=ft)
        config = ft.initial_configuration(4)
        step = plan.next_step(-1)
        actions = plan.actions_at(step, config, alive=range(4))
        assert actions[0].states[0] in ft.leader_states

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_same_seed_same_byzantine_run(self, engine):
        scenario = Scenario(faults=("byzantine:count=2,rate=0.01",))
        if not ENGINES[engine].supports(scenario):
            pytest.skip(f"{engine} declines identity-based faults")
        signatures = []
        for _ in range(2):
            sim = make_engine(engine, 7, scenario)
            result = sim.run(
                registry.instantiate("ft-global-line"), 8, 30_000,
                require_convergence=False,
            )
            signatures.append(result.config.signature())
        assert signatures[0] == signatures[1]

    def test_silent_edge_lies_bypass_the_notification_hook(self):
        # Every node byzantine, every lie also drops an incident edge
        # (lie=1).  Replay lies on the inert Recorder are identity state
        # writes, so any 'x' in the final configuration could only come
        # from a (wrongly) delivered edge-loss notification.
        scenario = Scenario(
            faults=("byzantine:count=6,mode=replay,lie=1,rate=0.01",)
        )
        sim = make_engine("indexed", 11, scenario)
        result = sim.run(Recorder(), 6, 50_000, require_convergence=False)
        assert result.config.n_active_edges < 5  # edges did get dropped
        assert result.config.count_in_state("x") == 0


# ----------------------------------------------------------------------
# Per-edge independent failure (edge-rate)
# ----------------------------------------------------------------------

class TestEdgeRateFaults:
    def test_validation(self):
        with pytest.raises(SpecError, match="probability"):
            FAULTS.instantiate("edge-rate:rate=1.5")
        assert FAULTS.canonical("edge-failure:rate=0.01") == (
            "edge-rate:rate=0.01"
        )

    def test_event_gap_matches_the_union_clock(self):
        # First-event times are geometric with p = 1 - (1-rate)^m; the
        # empirical mean gap must track 1/p.
        import math

        rate, n = 0.001, 8
        m = n * (n - 1) // 2
        p_total = -math.expm1(m * math.log1p(-rate))
        model = FAULTS.instantiate(f"edge-rate:rate={rate}")
        rng = random.Random(5)
        gaps, last = [], 0
        plan = model.compile(n, rng)
        for _ in range(4000):
            step = plan.next_step(last)
            gaps.append(step - last)
            last = step
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 1 / p_total) / (1 / p_total) < 0.1

    def test_actions_cut_only_live_active_edges(self):
        model = FAULTS.instantiate("edge-rate:rate=0.01")
        plan = model.compile(6, random.Random(2))
        config = Configuration(
            ["a", "a", "a", DEAD, "a", "a"],
            [(0, 1), (2, 3), (3, 4)],
        )
        seen = set()
        step = -1
        for _ in range(500):
            step = plan.next_step(step)
            for action in plan.actions_at(step, config, alive=[0, 1, 2, 4, 5]):
                assert action.kind == "cut" and not action.silent
                seen.update(action.edges)
        # Only the live active edge is ever cut; pairs touching the
        # DEAD node and inactive pairs are no-ops.
        assert seen == {(0, 1)}


# ----------------------------------------------------------------------
# Targeted adaptive schedulers
# ----------------------------------------------------------------------

class TestTargetedScheduler:
    def test_validation(self):
        with pytest.raises(SimulationError, match="unknown targeted aim"):
            SCHEDULERS.instantiate("targeted:aim=sideways")
        with pytest.raises(SimulationError, match="bias"):
            SCHEDULERS.instantiate("targeted:bias=1.0")
        assert SCHEDULERS.canonical("adversarial-targeted") == (
            "targeted:aim=leader,bias=0.9"
        )

    def test_needs_the_live_configuration(self):
        scheduler = SCHEDULERS.instantiate("targeted")
        with pytest.raises(SimulationError, match="adaptive"):
            next(scheduler.pairs(8, random.Random(0)))

    def test_event_engines_decline_and_route_to_sequential(self):
        scenario = Scenario(scheduler="targeted:aim=leader")
        for engine in ("indexed", "count"):
            assert not ENGINES[engine].supports(scenario)
            assert resolve_engine(engine, scenario, warn=False) == "sequential"
        with pytest.raises(SimulationError, match="does not support"):
            make_engine("indexed", 0, scenario)

    @pytest.mark.parametrize("aim", ["leader", "bridge"])
    def test_starved_construction_still_converges(self, aim):
        # Fair-with-probability-1: the adversary may slow the line down
        # but cannot stop it.
        scenario = Scenario(scheduler=f"targeted:aim={aim}")
        sim = make_engine("sequential", 1, scenario)
        protocol = registry.instantiate("simple-global-line")
        result = sim.run(protocol, 8, 3_000_000, require_convergence=False)
        assert result.converged
        assert protocol.target_reached(result.config)

    def test_leader_aim_tracks_declared_leader_states(self):
        scheduler = SCHEDULERS.instantiate("targeted:aim=leader,bias=0.99")
        protocol = registry.instantiate("ft-global-line")
        config = Configuration(["l", "q0", "q0", "q0"], [])
        rng = random.Random(0)
        stream = scheduler.pairs(4, rng, config=config, protocol=protocol)
        picks = [next(stream) for _ in range(2000)]
        touching = sum(1 for u, v in picks if 0 in (u, v))
        # Uniform touches node 0 in half the picks; the single biased
        # re-draw halves that (0.5 * 0.99 * 0.5 + 0.5 * 0.01 ~ 0.25).
        assert touching / len(picks) < 0.35


# ----------------------------------------------------------------------
# Edge-loss notifications across engines
# ----------------------------------------------------------------------

class TestEdgeLossNotifications:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_cut_notifies_both_endpoints(self, engine):
        scenario = Scenario(faults=("cut:edges=1-2,at=5",))
        if not ENGINES[engine].supports(scenario):
            pytest.skip(f"{engine} declines identity-based faults")
        sim = make_engine(engine, 0, scenario)
        result = sim.run(Recorder(), 4, 1_000, require_convergence=False)
        config = result.config
        assert config.edge_state(1, 2) == 0
        assert [config.state(u) for u in range(4)] == ["a", "x", "x", "a"]

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_edge_drop_notifies_until_no_edges_remain(self, engine):
        scenario = Scenario(faults=("edge-drop:rate=0.05",))
        if not ENGINES[engine].supports(scenario):
            pytest.skip(f"{engine} declines identity-based faults")
        sim = make_engine(engine, 1, scenario)
        result = sim.run(Recorder(), 5, 50_000, require_convergence=False)
        config = result.config
        assert config.n_active_edges == 0
        # Every node sat on at least one dropped edge, so every node
        # was notified exactly as the hook prescribes.
        assert config.count_in_state("x") == 5

    def test_default_protocols_ignore_edge_loss(self):
        protocol = registry.instantiate("simple-global-line")
        assert protocol.on_edge_loss("q2") is None


# ----------------------------------------------------------------------
# The redundancy-coded line
# ----------------------------------------------------------------------

class TestRCGlobalLine:
    def test_registry_spec_aliases_and_params(self):
        assert registry.canonical_spec("rc-global-line") == "rc-global-line:k=2"
        assert registry.canonical_spec(
            "redundancy-coded-global-line"
        ) == "rc-global-line:k=2"
        with pytest.raises(RegistryError, match="must be >= 0"):
            registry.instantiate("rc-global-line:k=-1")

    def test_state_count_is_3k_plus_7(self):
        for k in (0, 1, 2, 3):
            protocol = RCGlobalLine(k=k)
            assert len(protocol.states) == 3 * k + 7

    def test_faultless_construction_reaches_the_coded_target(self):
        protocol = RCGlobalLine()
        result = run_to_convergence(protocol, 16, seed=0)
        assert result.converged
        assert protocol.target_reached(result.config)
        # Exactly k isolated spares, distinct indices, off the line.
        spares = [
            u for u in range(16)
            if result.config.state(u) in protocol._spare_states
        ]
        assert len(spares) == protocol.k
        assert all(result.config.degree(u) == 0 for u in spares)

    def test_k0_degenerates_to_a_plain_line(self):
        protocol = RCGlobalLine(k=0)
        result = run_to_convergence(protocol, 10, seed=1)
        assert result.converged
        assert is_spanning_line(result.config.output_graph())

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_survives_mid_run_crashes(self, engine):
        protocol = RCGlobalLine()
        scenario = Scenario(faults=("crash:count=2,at=2000",))
        sim = make_engine(engine, 3, scenario)
        result = sim.run(protocol, 12, 5_000_000, require_convergence=False)
        assert result.converged
        assert protocol.target_reached(compact_survivors(result.config))

    def test_survives_sustained_edge_drop(self):
        protocol = RCGlobalLine()
        scenario = Scenario(faults=("edge-drop:rate=0.0002",))
        sim = make_engine("indexed", 5, scenario)
        result = sim.run(protocol, 16, 10_000_000, require_convergence=False)
        assert result.converged
        assert protocol.target_reached(compact_survivors(result.config))

    def test_survives_byzantine_state_lies(self):
        protocol = RCGlobalLine()
        scenario = Scenario(faults=("byzantine:count=1,rate=0.0001,lie=0",))
        sim = make_engine("indexed", 7, scenario)
        result = sim.run(protocol, 16, 10_000_000, require_convergence=False)
        assert result.converged
        assert protocol.target_reached(compact_survivors(result.config))

    def test_leader_states_cover_both_flavors(self):
        protocol = RCGlobalLine(k=1)
        assert protocol.leader_states == {"l0", "l1", "f0", "f1"}

    def test_stabilized_rejects_edged_spares(self):
        protocol = RCGlobalLine(k=1)
        # A spare holding an active edge could still fire a sanitizer:
        # the certificate must not declare this stable.
        bad = Configuration(["l1", "q1", "s1"], [(0, 1), (1, 2)])
        assert not protocol.stabilized(bad)
        good = Configuration(["l1", "q1", "s1"], [(0, 1)])
        assert protocol.stabilized(good)
        assert protocol.target_reached(good)


# ----------------------------------------------------------------------
# A small end-to-end dominance run
# ----------------------------------------------------------------------

class TestAdversarialDominance:
    def test_rc_dominates_simple_under_crash_load(self):
        from repro.analysis.robustness import RobustnessSpec, run_robustness

        spec = RobustnessSpec(
            protocols=("simple-global-line", "rc-global-line"),
            loads=(0, 2),
            n=12,
            trials=2,
            faults="crash",
            max_steps=5_000_000,
        )
        result = run_robustness(spec)
        assert result.survival_rate("rc-global-line", 2) == 1.0
        assert result.dominates("rc-global-line", "simple-global-line")
        assert not result.dominates("simple-global-line", "rc-global-line")

    def test_targeted_scheduler_threads_through_the_spec(self):
        from repro.analysis.robustness import RobustnessSpec, run_robustness

        spec = RobustnessSpec(
            protocols=("rc-global-line",),
            loads=(0,),
            n=8,
            trials=1,
            faults="crash",
            scheduler="targeted:aim=leader",
            max_steps=3_000_000,
        )
        assert spec.scheduler == "targeted:aim=leader,bias=0.9"
        result = run_robustness(spec)
        assert result.records[0].survived
