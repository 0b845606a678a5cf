"""Tests for the scenario layer: scheduler/fault/init registries, the
Scenario value object, capability-aware engine routing, fault injection
in every engine, and scenario round-trips through JSON and the process
executor."""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import (
    ExperimentError,
    ExperimentSpec,
    Runner,
    SweepResult,
    TrialSpec,
    run_trial,
)
from repro.core.errors import SimulationError
from repro.core.faults import DEAD, FAULTS, compile_fault_plan, survivors
from repro.core.graphs import is_spanning_line, named_graph
from repro.core.params import SpecError
from repro.core.scenario import (
    DEFAULT_SCENARIO,
    INITS,
    Scenario,
    resolve_engine,
)
from repro.core.scheduler import (
    SCHEDULERS,
    AdversarialLaggardScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
)
from repro.core.simulator import (
    ENGINES,
    SequentialSimulator,
    run_to_convergence,
)
from repro.protocols import SimpleGlobalLine
from repro.protocols.registry import RegistryError


class TestSchedulerRegistry:
    def test_names_and_aliases(self):
        assert {"uniform", "round-robin", "laggard", "scripted"} <= set(
            SCHEDULERS.names()
        )
        assert SCHEDULERS.canonical("rr") == "round-robin"
        assert SCHEDULERS.canonical("uniform-random") == "uniform"

    def test_laggard_spec_parses_params(self):
        scheduler = SCHEDULERS.instantiate("laggard:bias=0.8,lagged=0..2+5")
        assert isinstance(scheduler, AdversarialLaggardScheduler)
        assert scheduler.bias == 0.8
        assert scheduler.lagged == frozenset({0, 1, 2, 5})

    def test_canonicalization_is_idempotent(self):
        spec = SCHEDULERS.canonical("laggard:lagged=5+0..2,bias=0.80")
        assert spec == "laggard:bias=0.8,lagged=0..2+5"
        assert SCHEDULERS.canonical(spec) == spec

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SpecError, match="unknown scheduler"):
            SCHEDULERS.canonical("warp-drive")

    def test_scheduler_instances_round_trip_defaults(self):
        assert SCHEDULERS.canonical("laggard") == "laggard:bias=0.9,lagged=0"


class TestSchedulerValidation:
    """Satellite: eager validation, no throwaway fallback schedulers."""

    def test_scripted_self_loop_fails_at_construction(self):
        with pytest.raises(SimulationError, match="self-loop"):
            ScriptedScheduler([(2, 2)])

    def test_scripted_negative_fails_at_construction(self):
        with pytest.raises(SimulationError, match="negative"):
            ScriptedScheduler([(0, -1)])

    def test_scripted_out_of_range_fails_before_streaming(self):
        scheduler = ScriptedScheduler([(0, 1), (0, 5)])
        import random

        with pytest.raises(SimulationError, match="invalid for n=3"):
            scheduler.pairs(3, random.Random(0))

    def test_laggard_out_of_range_fails_before_streaming(self):
        import random

        scheduler = AdversarialLaggardScheduler(lagged={7}, bias=0.5)
        with pytest.raises(SimulationError, match="out of range"):
            scheduler.pairs(4, random.Random(0))


class TestFaultRegistry:
    def test_names(self):
        assert {"crash", "cut", "edge-drop"} <= set(FAULTS.names())

    def test_crash_spec(self):
        model = FAULTS.instantiate("crash:count=3,at=100")
        assert (model.count, model.at) == (3, 100)
        assert FAULTS.canonical("crash-stop:count=3,at=100") == (
            "crash:at=100,count=3"
        )

    def test_cut_spec_preserves_orientation(self):
        model = FAULTS.instantiate("cut:edges=2-1+0-3,at=7")
        assert model.edges == ((2, 1), (0, 3))

    def test_bad_rate_rejected(self):
        with pytest.raises(SpecError, match="rate"):
            FAULTS.instantiate("edge-drop:rate=1.5")

    def test_drop_plan_is_step_indexed(self):
        import random

        plan = FAULTS.instantiate("edge-drop:rate=0.01").compile(
            8, random.Random(1)
        )
        first = plan.next_step(-1)
        assert first >= 1
        assert plan.next_step(first - 1) == first
        assert plan.next_step(first) > first


class TestInitRegistry:
    def test_uniform_init(self):
        config = INITS.instantiate("uniform:state=q0").build(
            SimpleGlobalLine(), 5
        )
        assert config.states() == ["q0"] * 5

    def test_doped_init(self):
        config = INITS.instantiate("doped:state=l,count=2").build(
            SimpleGlobalLine(), 5
        )
        assert config.states() == ["l", "l", "q0", "q0", "q0"]

    def test_graph_init_preactivates_topology(self):
        config = INITS.instantiate("graph:graph=path-4").build(
            SimpleGlobalLine(), 6
        )
        assert sorted(config.active_edges()) == [(0, 1), (1, 2), (2, 3)]
        assert config.states() == ["q0"] * 6

    def test_graph_init_too_large_rejected(self):
        init = INITS.instantiate("graph:graph=ring-8")
        with pytest.raises(SimulationError, match="population"):
            init.build(SimpleGlobalLine(), 5)


class TestScenario:
    def test_default_scenario(self):
        assert DEFAULT_SCENARIO.is_default
        assert Scenario() == DEFAULT_SCENARIO
        assert Scenario(scheduler="uniform-random").is_default

    def test_axes_canonicalized(self):
        scenario = Scenario(
            scheduler="rr", faults=("crash-stop:count=2",), init="graph:graph=cycle-4"
        )
        assert scenario.scheduler == "round-robin"
        assert scenario.faults == ("crash:at=0,count=2",)
        assert scenario.init == "graph:graph=ring-4"

    def test_single_fault_string_promoted(self):
        assert Scenario(faults="crash:count=1").faults == ("crash:at=0,count=1",)

    def test_invalid_axis_rejected(self):
        with pytest.raises(SpecError):
            Scenario(scheduler="nope")
        with pytest.raises(SpecError):
            Scenario(faults=("meteor:size=9",))

    def test_dict_round_trip(self):
        scenario = Scenario(
            scheduler="laggard:bias=0.5,lagged=0..3",
            faults=("crash:at=10,count=1", "edge-drop:rate=0.001"),
            init="doped:state=l",
        )
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(payload) == scenario

    def test_missing_payload_decodes_to_default(self):
        assert Scenario.from_dict(None) == DEFAULT_SCENARIO

    def test_unbounded_faults_detected(self):
        assert Scenario(faults=("edge-drop:rate=0.01",)).has_unbounded_faults
        assert not Scenario(faults=("crash:count=1",)).has_unbounded_faults


# Hypothesis strategies over valid scenario axes.
_schedulers = st.one_of(
    st.just("uniform"),
    st.just("round-robin"),
    st.builds(
        lambda bias, lagged: (
            f"laggard:bias={bias},lagged="
            + "+".join(str(u) for u in sorted(lagged))
        ),
        st.floats(0.0, 0.99, allow_nan=False).filter(lambda b: b < 1.0),
        st.sets(st.integers(0, 20), min_size=1, max_size=5),
    ),
)
_faults = st.lists(
    st.one_of(
        st.builds(
            lambda c, at: f"crash:count={c},at={at}",
            st.integers(1, 4), st.integers(0, 10_000),
        ),
        st.builds(
            lambda r: f"edge-drop:rate={r}",
            st.floats(1e-6, 0.5, allow_nan=False),
        ),
        st.builds(
            lambda u, v, at: f"cut:edges={u}-{v + u + 1},at={at}",
            st.integers(0, 8), st.integers(0, 8), st.integers(0, 1000),
        ),
    ),
    max_size=3,
)
_inits = st.one_of(
    st.just(""),
    st.just("doped:state=l,count=2"),
    st.builds(lambda k: f"graph:graph=ring-{k}", st.integers(3, 12)),
)


class TestScenarioProperties:
    @settings(max_examples=80, deadline=None)
    @given(scheduler=_schedulers, faults=_faults, init=_inits)
    def test_json_round_trip(self, scheduler, faults, init):
        scenario = Scenario(
            scheduler=scheduler, faults=tuple(faults), init=init
        )
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(payload) == scenario

    @settings(max_examples=80, deadline=None)
    @given(scheduler=_schedulers, faults=_faults, init=_inits)
    def test_canonicalization_idempotent(self, scheduler, faults, init):
        scenario = Scenario(
            scheduler=scheduler, faults=tuple(faults), init=init
        )
        again = Scenario(
            scheduler=scenario.scheduler,
            faults=scenario.faults,
            init=scenario.init,
        )
        assert again == scenario


class TestEngineRouting:
    def test_default_scenario_keeps_engine(self):
        for engine in ENGINES:
            assert resolve_engine(engine, DEFAULT_SCENARIO, warn=False) == engine

    def test_non_uniform_scheduler_routes_to_sequential(self):
        scenario = Scenario(scheduler="round-robin")
        assert resolve_engine("indexed", scenario, warn=False) == "sequential"
        assert resolve_engine("count", scenario, warn=False) == "sequential"
        assert resolve_engine("sequential", scenario, warn=False) == "sequential"

    def test_faults_stay_on_event_driven_engines(self):
        scenario = Scenario(faults=("crash:count=1",))
        assert resolve_engine("indexed", scenario, warn=False) == "indexed"

    def test_rerouting_warns(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            resolve_engine("indexed", Scenario(scheduler="round-robin"))

    def test_spec_without_budget_rejected_for_sequential_route(self):
        with pytest.raises(ExperimentError, match="max_steps"):
            ExperimentSpec(
                protocol="cycle-cover", sizes=(8,), trials=1,
                scenario=Scenario(scheduler="round-robin"),
            )

    def test_spec_without_budget_rejected_for_unbounded_faults(self):
        with pytest.raises(ExperimentError, match="max_steps"):
            ExperimentSpec(
                protocol="cycle-cover", sizes=(8,), trials=1,
                scenario=Scenario(faults=("edge-drop:rate=0.01",)),
            )


def _scenario_spec(
    scheduler: str, faults: tuple[str, ...] = ()
) -> ExperimentSpec:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ExperimentSpec(
            protocol="cycle-cover", sizes=(8,), trials=3,
            scenario=Scenario(scheduler=scheduler, faults=faults),
            max_steps=500_000,
        )


class TestSchedulersThroughRunner:
    """Satellite: non-uniform schedulers driven through the Runner, not
    hand-built simulators."""

    @pytest.mark.parametrize(
        "scheduler_spec, scheduler_cls",
        [
            ("round-robin", RoundRobinScheduler),
            ("laggard:bias=0.7,lagged=0..1", AdversarialLaggardScheduler),
        ],
    )
    def test_runner_matches_hand_built_sequential(
        self, scheduler_spec, scheduler_cls
    ):
        spec = _scenario_spec(scheduler_spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = Runner().run(spec)
        assert all(r.converged for r in result.records)
        # The same trials, hand-built: identical values prove the Runner
        # actually drove the requested scheduler through the reference
        # engine.
        scheduler = SCHEDULERS.instantiate(scheduler_spec)
        assert isinstance(scheduler, scheduler_cls)
        from repro.protocols import CycleCover

        for record in result.records:
            sim = SequentialSimulator(
                scheduler=SCHEDULERS.instantiate(scheduler_spec),
                seed=record.seed,
            )
            direct = sim.run(CycleCover(), 8, 500_000)
            assert record.value == direct.last_output_change_step
            assert record.steps == direct.steps

    def test_scenario_survives_process_executor(self):
        for spec in (
            _scenario_spec("round-robin"),
            _scenario_spec("round-robin", faults=("crash:count=1,at=0",)),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                serial = Runner(jobs=1).run(spec)
                parallel = Runner(jobs=2).run(spec)
            assert [r.deterministic() for r in serial.records] == [
                r.deterministic() for r in parallel.records
            ], spec.scenario
            assert all(r.converged for r in serial.records), spec.scenario

    def test_sweep_result_json_round_trip_with_scenario(self):
        spec = _scenario_spec("round-robin")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = Runner().run(spec)
        clone = SweepResult.from_json(result.to_json())
        assert clone == result
        assert clone.spec.scenario == spec.scenario

    def test_trial_spec_carries_scenario(self):
        spec = _scenario_spec("round-robin")
        for trial in spec.expand():
            assert trial.scenario == spec.scenario


class TestCrashFaults:
    """Satellite: a crash-fault run on Simple-Global-Line — the
    surviving population restabilizes to a spanning line."""

    @pytest.mark.parametrize("engine", ["indexed", "sequential"])
    def test_survivors_restabilize_to_line(self, engine):
        scenario = Scenario(faults=("crash:count=2,at=0",))
        kwargs = {"max_steps": 5_000_000} if engine == "sequential" else {}
        result = run_to_convergence(
            SimpleGlobalLine(), 12, seed=11, engine=engine,
            scenario=scenario, **kwargs,
        )
        assert result.converged
        alive = survivors(result.config)
        assert len(alive) == 10
        crashed = [u for u in range(12) if u not in alive]
        for u in crashed:
            assert result.config.state(u) == DEAD
            assert result.config.degree(u) == 0
        assert is_spanning_line(result.config.active_subgraph(alive))

    def test_mid_run_crash_counts_as_output_change(self):
        scenario = Scenario(faults=("crash:count=1,at=150000",))
        result = run_to_convergence(
            SimpleGlobalLine(), 10, seed=5, scenario=scenario,
        )
        assert result.converged
        assert result.convergence_time >= 150_000
        assert len(survivors(result.config)) == 9

    def test_crash_through_runner_and_process_executor(self):
        spec = ExperimentSpec(
            protocol="simple-global-line", sizes=(10,), trials=3,
            scenario=Scenario(faults=("crash:count=2,at=0",)),
        )
        serial = Runner(jobs=1).run(spec)
        parallel = Runner(jobs=2).run(spec)
        assert [r.deterministic() for r in serial.records] == [
            r.deterministic() for r in parallel.records
        ]
        assert all(r.converged for r in serial.records)

    def test_run_trial_uses_scenario(self):
        trial = TrialSpec(
            protocol="simple-global-line", n=10, trial=0, seed=42,
            scenario=Scenario(faults=("crash:count=3,at=0",)),
        )
        record = run_trial(trial)
        assert record.converged

    @pytest.mark.parametrize("engine", ["indexed", "sequential"])
    def test_crashing_almost_everyone_terminates(self, engine):
        # Regression: with < 2 survivors no alive pair exists; the
        # sequential engine must detect that before its dead-pair
        # rejection loop (which never advances the step clock).
        scenario = Scenario(faults=("crash:count=3,at=0",))
        kwargs = {"max_steps": 100_000} if engine == "sequential" else {}
        result = run_to_convergence(
            SimpleGlobalLine(), 4, seed=1, engine=engine,
            scenario=scenario, **kwargs,
        )
        assert result.converged
        assert len(survivors(result.config)) == 1

    @pytest.mark.parametrize("engine", ["indexed", "sequential"])
    def test_noop_fault_past_horizon_still_stabilizes(self, engine):
        # Regression: a cut of an inactive edge fires after the run has
        # stabilized; the horizon-gated certificate must be re-checked
        # when the (no-op) fault passes, not burn the whole budget.
        scenario = Scenario(faults=("cut:edges=0-1,at=50000",))
        result = run_to_convergence(
            SimpleGlobalLine(), 8, seed=6, engine=engine,
            scenario=scenario, max_steps=2_000_000,
        )
        assert result.converged
        assert result.steps < 2_000_000


class TestEdgeFaults:
    def test_scheduled_cut_fires_between_picks(self):
        # Pre-activated ring, no effective interactions for the line
        # protocol on a ring-free state set: use a cut on an init graph.
        scenario = Scenario(
            faults=("cut:edges=0-1,at=5",), init="graph:graph=path-3",
        )
        result = run_to_convergence(
            SimpleGlobalLine(), 6, seed=2, scenario=scenario,
            max_steps=200_000,
        )
        assert result.config.edge_state(0, 1) in (0, 1)  # ran to completion

    def test_edge_drop_perturbs_runs(self):
        scenario = Scenario(faults=("edge-drop:rate=0.01",))
        result = run_to_convergence(
            SimpleGlobalLine(), 8, seed=3, scenario=scenario,
            max_steps=100_000,
        )
        # Sustained deletion keeps breaking the line: the run either
        # exhausts its budget or stabilizes only after the budgeted
        # window's deletions were repaired.
        assert result.steps > 0
        assert result.last_change_step > 0

    def test_compile_fault_plan_composes(self):
        models = (
            FAULTS.instantiate("crash:count=1,at=50"),
            FAULTS.instantiate("cut:edges=0-1,at=80"),
        )
        plan = compile_fault_plan(models, 8, seed=1)
        assert plan.horizon == 80
        assert plan.next_step(-1) == 50
        assert plan.next_step(50) == 80
        assert plan.next_step(80) is None


class TestInitThroughEngines:
    def test_uniform_init_matches_default_run(self):
        # "uniform:state=q0" rebuilds the protocol default, so the run
        # must be step-identical to the unscenarioed one on every engine.
        scenario = Scenario(init="uniform:state=q0")
        for engine in ("indexed", "count"):
            default = run_to_convergence(
                SimpleGlobalLine(), 10, seed=9, engine=engine
            )
            overridden = run_to_convergence(
                SimpleGlobalLine(), 10, seed=9, engine=engine,
                scenario=scenario,
            )
            assert overridden.steps == default.steps
            assert overridden.config == default.config

    def test_graph_init_runs_to_target(self):
        result = run_to_convergence(
            SimpleGlobalLine(), 8, seed=4,
            scenario=Scenario(init="graph:graph=path-4"),
        )
        assert result.converged


class TestGraphReplicationRegistry:
    """Satellite: composite constructors resolve via spec strings."""

    def test_spec_string_resolves(self):
        from repro.protocols import GraphReplication, registry

        protocol = registry.instantiate("graph-replication:graph=ring-6")
        assert isinstance(protocol, GraphReplication)
        assert protocol.n1 == 6
        assert registry.canonical_spec("replication:graph=cycle-6") == (
            "graph-replication:graph=ring-6"
        )

    def test_named_graphs(self):
        assert named_graph("ring-5").number_of_edges() == 5
        assert named_graph("path-4").number_of_edges() == 3
        assert named_graph("star-5").number_of_edges() == 4
        assert named_graph("clique-4").number_of_edges() == 6
        assert named_graph("gnp-6-1").number_of_nodes() == 6
        for bad in ("blob-9", "path-0", "gnp-0-1"):
            with pytest.raises(ValueError):
                named_graph(bad)
        with pytest.raises(RegistryError):
            ExperimentSpec(
                protocol="graph-replication:graph=gnp-0-1", sizes=(8,),
                trials=1,
            )

    def test_sweeps_through_runner(self):
        spec = ExperimentSpec(
            protocol="graph-replication:graph=path-3", sizes=(8,), trials=2,
        )
        result = Runner().run(spec)
        assert all(r.converged for r in result.records)
