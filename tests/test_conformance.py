"""The registry-wide conformance suite and the coverage-gap regression.

``test_protocol_conformance`` is expanded by the
:mod:`repro.testing.plugin` pytest plugin (loaded from the repo-root
``conftest.py``) into one test per (registered protocol x check) cell,
so newly registered protocols are exercised automatically.  The rest of
this module pins the tentpole itself: the Theorem-14 machines are
first-class registry protocols, no concrete ``Protocol`` subclass can
silently fall out of registry reach again, and the conformance kit's
own failure detection works.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import ExperimentSpec, Runner
from repro.core.protocol import Outcome, Protocol, deterministic
from repro.core.simulator import ENGINES, run_to_convergence
from repro.protocols import registry
from repro.testing import (
    CHECKS,
    DEFAULT_SETTINGS,
    ConformanceError,
    conformance_cases,
    conformance_population,
    conformance_specs,
    format_outcomes,
    iter_protocol_classes,
    run_conformance,
)
from repro.testing.conformance import (
    check_adversarial,
    check_rule_table,
    check_state_closure,
    registered_protocol_classes,
)


def test_protocol_conformance(conformance_case):
    """One registry-wide cell per parametrization (see the plugin)."""
    outcome = conformance_case.run()
    if outcome.skipped:
        pytest.skip(outcome.detail)
    assert outcome.passed, (
        f"{outcome.protocol} failed {outcome.check}: {outcome.detail}"
    )


class TestRegistryCoverage:
    def test_theorem_14_machines_registered(self):
        names = registry.names()
        for expected in ("line-tm", "tm-decider", "universal"):
            assert expected in names

    def test_every_concrete_protocol_class_is_registry_reachable(self):
        """No concrete Protocol subclass in src/repro may be invisible
        to the registry: it must be (a subclass of) a class some entry
        instantiates.  This is the tripwire that keeps the PR-4-era
        'driver-run only' gap from reopening."""
        reachable = registered_protocol_classes()
        unreachable = [
            cls
            for cls in iter_protocol_classes()
            if not any(issubclass(r, cls) for r in reachable)
        ]
        assert not unreachable, (
            "Protocol subclasses not reachable from any registry entry: "
            + ", ".join(
                f"{cls.__module__}.{cls.__name__}" for cls in unreachable
            )
        )

    def test_conformance_specs_cover_the_whole_registry(self):
        specs = conformance_specs()
        assert len(specs) == len(registry.available())
        assert all(registry.canonical_spec(s) == s for s in specs)


class TestLineTMThroughTheRunner:
    def test_line_tm_parity_converges_via_standard_run_path(self):
        """The acceptance criterion: no driver-only code anywhere."""
        protocol = registry.instantiate("line-tm:program=parity")
        result = run_to_convergence(protocol, 16, seed=0)
        assert result.converged
        assert protocol.verdict(result.config) == "accept"  # 14 blanks: even
        assert protocol.target_reached(result.config)

    def test_line_tm_parity_rejects_odd_populations(self):
        protocol = registry.instantiate("line-tm:program=parity")
        result = run_to_convergence(protocol, 9, seed=1)
        assert protocol.verdict(result.config) == "reject"  # 7 blanks: odd
        assert protocol.target_reached(result.config)

    def test_line_tm_count_reads_back_the_population(self):
        from repro.tm.programs import read_counter

        protocol = registry.instantiate("line-tm:program=count")
        result = run_to_convergence(protocol, 12, seed=2)
        assert result.converged
        tm_result = protocol.read_result(result.config)
        value, digits = read_counter(tm_result.tape)
        consumed = tm_result.tape.count("x")
        assert value in (consumed, consumed + 1)
        assert consumed + digits + 2 == 12

    def test_line_tm_sweeps_through_the_runner(self):
        spec = ExperimentSpec(
            protocol="line-tm:program=zigzag",
            sizes=(6, 8),
            trials=2,
            measure="last_change",
        )
        result = Runner(jobs=2).run(spec)
        assert len(result.records) == 4
        assert all(r.converged for r in result.records)

    def test_tm_decider_line_agrees_with_raw_machine(self):
        for machine, graph, expected in (
            ("has-edge", "ring-4", "accept"),
            ("empty", "ring-4", "reject"),
            ("even-edges", "clique-4", "accept"),
        ):
            protocol = registry.instantiate(
                f"tm-decider:machine={machine},graph={graph}"
            )
            n = conformance_population(protocol)
            result = run_to_convergence(protocol, n, seed=3)
            assert result.converged
            assert protocol.verdict(result.config) == expected
            assert protocol.target_reached(result.config)


class TestUniversalProtocol:
    def test_constructs_a_language_member_and_releases(self):
        protocol = registry.instantiate("universal:family=even-edges")
        result = run_to_convergence(protocol, 10, seed=4)
        assert result.converged
        assert protocol.target_reached(result.config)
        graph = protocol.constructed_graph(result.config)
        assert graph.number_of_nodes() == 5  # k = floor(10/2)
        assert graph.number_of_edges() % 2 == 0

    def test_explicit_k_pins_the_useful_space(self):
        protocol = registry.instantiate("universal:family=has-edge,k=3")
        result = run_to_convergence(protocol, 8, seed=5)
        assert result.converged
        assert protocol.constructed_graph(result.config).number_of_nodes() == 3

    def test_rejection_redraws_until_acceptance(self):
        # one-edge at k=4 has acceptance probability 6/64 per draw, so
        # redraws are near-certain; the loop must still terminate.
        protocol = registry.instantiate("universal:family=one-edge")
        result = run_to_convergence(protocol, 8, seed=6)
        assert result.converged
        assert protocol.constructed_graph(result.config).number_of_edges() == 1

    def test_shorthand_parses_the_family(self):
        entry, params = registry.parse_spec("universal-connected")
        assert entry.name == "universal" and params["family"] == "connected"

    def test_sweeps_through_the_runner(self):
        spec = ExperimentSpec(
            protocol="universal:family=has-edge",
            sizes=(8,),
            trials=3,
            measure="last_change",
        )
        result = Runner().run(spec)
        assert all(r.converged for r in result.records)


class TestCheckersDetectViolations:
    """The conformance kit must fail on broken protocols, not just pass
    on good ones."""

    def test_state_closure_catches_undeclared_states(self):
        class Leaky(Protocol):
            name = "leaky"
            initial_state = "a"
            states = frozenset({"a", "b"})

            def delta(self, a, b, c):
                if (a, b, c) == ("a", "a", 0):
                    return deterministic("b", "zzz", 1)
                return None

        outcome = check_state_closure(Leaky(), "leaky", DEFAULT_SETTINGS)
        assert not outcome.passed and "zzz" in outcome.detail

    def test_rule_table_catches_orientation_conflicts(self):
        class BadSym(Protocol):
            name = "badsym"
            initial_state = "a"
            states = frozenset({"a", "b"})

            def delta(self, a, b, c):
                if (a, b, c) == ("a", "b", 0):
                    return deterministic("a", "a", 1)
                if (a, b, c) == ("b", "a", 0):
                    return deterministic("b", "b", 1)
                return None

        outcome = check_rule_table(BadSym(), "badsym", DEFAULT_SETTINGS)
        assert not outcome.passed and "orientations disagree" in outcome.detail

    def test_rule_table_catches_bad_distributions(self):
        class BadDist(Protocol):
            name = "baddist"
            initial_state = "a"
            states = frozenset({"a"})

            def delta(self, a, b, c):
                if c == 0:
                    return ((0.7, Outcome("a", "a", 1)),)
                return None

        outcome = check_rule_table(BadDist(), "baddist", DEFAULT_SETTINGS)
        assert not outcome.passed and "sum to 0.7" in outcome.detail

    def test_adversarial_catches_leaky_notification_hooks(self):
        class LeakyHook(Protocol):
            name = "leakyhook"
            initial_state = "a"
            states = frozenset({"a"})

            def delta(self, a, b, c):
                return None

            def on_edge_loss(self, state):
                return "zzz"

        outcome = check_adversarial(LeakyHook(), "leakyhook", DEFAULT_SETTINGS)
        assert not outcome.passed
        assert "on_edge_loss" in outcome.detail and "zzz" in outcome.detail

    @pytest.mark.parametrize("attr, value", [
        ("initial_state", "zzz"),
        ("leader_states", frozenset({"zzz"})),
    ])
    def test_adversarial_catches_undeclared_joins_and_claims(self, attr, value):
        """Arrivals join in ``initial_state`` and an always-leader liar
        claims a ``leader_states`` member mid-run: both must be declared
        for every state a run interns to be interned at compile time."""

        class Leaky(Protocol):
            name = "leaky"
            initial_state = "a"
            states = frozenset({"a"})

            def delta(self, a, b, c):
                return None

        protocol = Leaky()
        setattr(protocol, attr, value)
        outcome = check_adversarial(protocol, "leaky", DEFAULT_SETTINGS)
        assert not outcome.passed
        assert attr in outcome.detail and "zzz" in outcome.detail

    def test_unknown_check_name_rejected(self):
        with pytest.raises(ConformanceError, match="unknown check"):
            conformance_cases(checks=["no-such-check"])

    def test_vacuous_seed_counts_rejected(self):
        from repro.testing import ConformanceSettings

        with pytest.raises(ConformanceError, match="seeds must be >= 1"):
            ConformanceSettings(seeds=0)

    def test_unexpected_check_exception_fails_the_cell(self):
        """A check that raises (the very bug class the faults check
        probes for) must record a FAIL, not kill the whole grid."""
        from repro.testing import conformance as kit
        from repro.testing import ConformanceCase

        def boom(protocol, spec, settings):
            raise TypeError("boom")

        original = kit.CHECKS["registry"]
        kit.CHECKS["registry"] = boom
        try:
            outcome = ConformanceCase("global-star", "registry").run()
        finally:
            kit.CHECKS["registry"] = original
        assert not outcome.passed and "TypeError: boom" in outcome.detail

    def test_universal_rejects_the_unsatisfiable_k1(self):
        from repro.protocols.registry import RegistryError

        with pytest.raises(RegistryError, match="k=0 .*or k >= 2"):
            registry.instantiate("universal:family=has-edge,k=1")

    def test_run_conformance_formats_a_report(self):
        outcomes = run_conformance(
            specs=["global-star"], checks=["registry", "rule-table"]
        )
        assert all(o.passed for o in outcomes)
        report = format_outcomes(outcomes)
        assert "global-star" in report and "2 cells" in report
        assert set(CHECKS) >= {o.check for o in outcomes}


class TestScenarioMatrix:
    """The rotating (scheduler x fault) scenario-matrix check."""

    def test_matrix_cells_must_be_positive(self):
        from repro.testing import ConformanceSettings

        with pytest.raises(ConformanceError, match="matrix_cells"):
            ConformanceSettings(matrix_cells=0)

    def test_rotation_is_deterministic_and_seed_dependent(self):
        from itertools import product

        from repro.testing import ConformanceSettings
        from repro.testing.conformance import (
            MATRIX_FAULTS,
            MATRIX_SCHEDULERS,
            _matrix_rank,
        )

        def cells(seed, spec="global-star"):
            settings = ConformanceSettings(ks_seed=seed)
            grid = sorted(
                product(MATRIX_SCHEDULERS, MATRIX_FAULTS),
                key=lambda cell: _matrix_rank(settings, spec, repr(cell)),
            )
            return grid[: settings.matrix_cells]

        assert cells(1) == cells(1)
        assert any(cells(seed) != cells(1) for seed in range(2, 8))

    def test_full_grid_runs_every_engine_on_the_uniform_cell(self):
        from repro.testing import ConformanceSettings
        from repro.testing.conformance import check_scenario_matrix

        settings = ConformanceSettings(matrix_cells=12)
        outcome = check_scenario_matrix(
            registry.instantiate("global-star"), "global-star", settings
        )
        assert outcome.passed, outcome.detail
        # The faultless uniform cell admits every registered engine;
        # targeted scheduling is sequential-only.
        assert f"(scheduler=uniform) x {len(ENGINES)} engines" in outcome.detail
        assert "targeted" in outcome.detail and "x 1 engines" in outcome.detail

    def test_small_population_skips(self):
        from repro.testing import ConformanceSettings
        from repro.testing.conformance import check_scenario_matrix

        class Tiny(Protocol):
            name = "tiny"
            initial_state = "a"
            states = frozenset({"a"})

            def delta(self, a, b, c):
                return None

        settings = ConformanceSettings(populations=(2,), matrix_cells=1)
        outcome = check_scenario_matrix(Tiny(), "tiny", settings)
        assert outcome.skipped and "too small" in outcome.detail

    @staticmethod
    def _fault_dropping_count(monkeypatch):
        """Swap the count engine for one that silently drops faults —
        the bug class the structural invariants exist to catch."""
        from repro.core.simulator import ENGINES

        class LazyCount(ENGINES["indexed"]):
            def __init__(self, seed=None, faults=(), **kwargs):
                super().__init__(seed=seed)

            @classmethod
            def supports(cls, scenario):
                return True

        monkeypatch.setitem(ENGINES, "count", LazyCount)

    def test_dropped_crash_fault_fails_the_cell(self, monkeypatch):
        from repro.testing import ConformanceSettings
        from repro.testing import conformance as kit

        self._fault_dropping_count(monkeypatch)
        monkeypatch.setattr(kit, "MATRIX_FAULTS", (("crash:count=1,at=40",),))
        settings = ConformanceSettings(matrix_cells=1)
        outcome = kit.check_scenario_matrix(
            registry.instantiate("global-star"), "global-star", settings
        )
        assert not outcome.passed
        assert "DEAD nodes, expected 1" in outcome.detail

    def test_dropped_arrival_fault_fails_the_cell(self, monkeypatch):
        from repro.testing import ConformanceSettings
        from repro.testing import conformance as kit

        self._fault_dropping_count(monkeypatch)
        monkeypatch.setattr(kit, "MATRIX_FAULTS", (("arrive:count=2,at=40",),))
        settings = ConformanceSettings(matrix_cells=1)
        outcome = kit.check_scenario_matrix(
            registry.instantiate("global-star"), "global-star", settings
        )
        assert not outcome.passed
        assert "population" in outcome.detail

    def test_cell_with_no_supporting_engine_fails(self, monkeypatch):
        from repro.testing import ConformanceSettings
        from repro.testing import conformance as kit

        class Decliner:
            @classmethod
            def supports(cls, scenario):
                return False

        monkeypatch.setattr(kit, "ENGINES", {"decliner": Decliner})
        outcome = kit.check_scenario_matrix(
            registry.instantiate("global-star"),
            "global-star",
            ConformanceSettings(matrix_cells=1),
        )
        assert not outcome.passed
        assert "no engine supports" in outcome.detail

    def test_count_refusing_a_uniform_cell_fails(self, monkeypatch):
        from repro.core.simulator import ENGINES
        from repro.testing import ConformanceSettings
        from repro.testing.conformance import check_scenario_matrix

        class Grumpy(ENGINES["count"]):
            @classmethod
            def supports(cls, scenario):
                return False

        monkeypatch.setitem(ENGINES, "count", Grumpy)
        settings = ConformanceSettings(matrix_cells=12)
        outcome = check_scenario_matrix(
            registry.instantiate("global-star"), "global-star", settings
        )
        assert not outcome.passed
        assert "count engine must support" in outcome.detail


class TestEngineKSRotation:
    """The sampled KS escalation of the ``engines`` check."""

    def test_ks_statistic_identical_and_disjoint_samples(self):
        from repro.testing.conformance import ks_statistic

        assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
        assert ks_statistic([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        # Ties must not inflate the statistic (the classic merge-walk bug).
        assert ks_statistic([1, 1, 2], [1, 2, 2]) == pytest.approx(1 / 3)

    def test_ks_statistic_matches_scipy(self):
        import random

        scipy_stats = pytest.importorskip("scipy.stats")
        from repro.testing.conformance import ks_statistic

        rng = random.Random(42)
        xs = [rng.gauss(0, 1) for _ in range(37)]
        ys = [rng.gauss(0.5, 2) for _ in range(53)]
        expected = scipy_stats.ks_2samp(xs, ys).statistic
        assert ks_statistic(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_ks_threshold_classical_values(self):
        import math

        from repro.testing.conformance import ks_threshold

        # c(0.05) = 1.3581, the textbook constant.
        assert ks_threshold(100, 100, 0.05) == pytest.approx(
            1.3581 * math.sqrt(2 / 100), abs=1e-3
        )
        # Small equal samples: only gross disagreement can clear it.
        assert ks_threshold(8, 8, 0.01) > 0.8

    def test_rotation_is_deterministic_and_seed_dependent(self):
        from repro.testing.conformance import (
            ConformanceSettings,
            in_ks_rotation,
        )

        specs = conformance_specs()
        s0 = ConformanceSettings(ks_seed=0)
        first = {spec: in_ks_rotation(spec, s0) for spec in specs}
        assert first == {spec: in_ks_rotation(spec, s0) for spec in specs}
        memberships = {
            seed: frozenset(
                spec
                for spec in specs
                if in_ks_rotation(spec, ConformanceSettings(ks_seed=seed))
            )
            for seed in range(6)
        }
        assert len(set(memberships.values())) > 1, (
            "rotation never rotates: same subset for every seed"
        )
        covered = set().union(*memberships.values())
        assert covered, "no protocol ever enters the rotation"

    def test_rotated_protocol_runs_the_ks_comparison(self):
        from repro.testing.conformance import ConformanceSettings

        settings = ConformanceSettings(
            ks_fraction=1.0, ks_samples=3, ks_seed=11
        )
        (outcome,) = run_conformance(
            specs=["cycle-cover"], checks=["engines"], settings=settings
        )
        assert outcome.passed, outcome.detail
        assert "KS over 3 samples" in outcome.detail

    def test_out_of_rotation_keeps_the_median_band_only(self):
        from repro.testing.conformance import ConformanceSettings

        settings = ConformanceSettings(ks_fraction=0.0)
        (outcome,) = run_conformance(
            specs=["cycle-cover"], checks=["engines"], settings=settings
        )
        assert outcome.passed, outcome.detail
        assert "KS" not in outcome.detail

    def test_ks_seed_defaults_from_environment(self, monkeypatch):
        from repro.testing.conformance import ConformanceSettings

        monkeypatch.setenv("REPRO_CONFORMANCE_KS_SEED", "1234")
        assert ConformanceSettings().ks_seed == 1234

    def test_bad_ks_settings_rejected(self):
        from repro.testing.conformance import ConformanceSettings

        with pytest.raises(ConformanceError, match="ks_fraction"):
            ConformanceSettings(ks_fraction=1.5)
        with pytest.raises(ConformanceError, match="ks_samples"):
            ConformanceSettings(ks_samples=1)
        with pytest.raises(ConformanceError, match="ks_alpha"):
            ConformanceSettings(ks_alpha=0.0)
