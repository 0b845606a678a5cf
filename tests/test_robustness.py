"""Tests for the robustness-sweep layer: spec validation and expansion,
paired seeding, survival/re-stabilization curves, dominance of the
fault-tolerant line, JSON round-trips, executor equivalence, and the
``repro-net robustness`` / ``bench --robustness`` surfaces."""

from __future__ import annotations

import json

import pytest

from repro.analysis.robustness import (
    FAULT_FAMILIES,
    ROBUSTNESS_FAMILIES,
    ROBUSTNESS_PROTOCOLS,
    RobustnessResult,
    RobustnessSpec,
    bench_robustness,
    format_bench_robustness,
    run_robustness,
)
from repro.analysis.runner import ExperimentError, TrialRecord, run_trial
from repro.cli import main
from repro.core.serialization import dump, load


def _small_spec(**overrides) -> RobustnessSpec:
    defaults = dict(
        protocols=("simple-global-line", "ft-global-line"),
        loads=(0, 1, 2),
        n=14,
        trials=4,
        max_steps=2_000_000,
    )
    defaults.update(overrides)
    return RobustnessSpec(**defaults)


class TestRobustnessSpec:
    def test_protocols_canonicalized(self):
        spec = _small_spec(protocols=("fault-tolerant-global-line",))
        assert spec.protocols == ("ft-global-line",)

    def test_fault_at_defaults_to_n_squared(self):
        assert _small_spec(n=14).fault_at == 196
        assert _small_spec(at=77).fault_at == 77

    def test_load_zero_is_the_faultless_baseline(self):
        spec = _small_spec()
        assert spec.fault_spec(0) is None
        assert spec.scenario(0).is_default

    def test_crash_loads_render_counts(self):
        spec = _small_spec(at=100)
        assert spec.fault_spec(2) == "crash:count=2,at=100"

    def test_rate_families(self):
        spec = _small_spec(faults="edge-drop", loads=(0, 0.01))
        assert spec.fault_spec(0.01) == "edge-drop:rate=0.01"
        spec = _small_spec(faults="churn", loads=(0.001,))
        assert spec.fault_spec(0.001) == "churn:rate=0.001"
        spec = _small_spec(faults="edge-rate", loads=(0, 0.001))
        assert spec.fault_spec(0.001) == "edge-rate:rate=0.001"

    def test_byzantine_family_pins_a_differentiating_cadence(self):
        # Byzantine loads are node counts; the family pins the lie rate
        # below the model default so construction has begun before the
        # first lie lands at bench populations.
        spec = _small_spec(faults="byzantine", loads=(0, 2))
        assert spec.fault_spec(2) == (
            "byzantine:count=2,mode=random-state,rate=0.00001"
        )
        with pytest.raises(ExperimentError, match="integers"):
            _small_spec(faults="byzantine", loads=(0.5,))

    def test_scheduler_axis_canonicalized(self):
        spec = _small_spec(scheduler="adversarial-targeted")
        assert spec.scheduler == "targeted:aim=leader,bias=0.9"
        assert RobustnessSpec.from_dict(spec.to_dict()) == spec
        # Records written before the adversarial axis landed decode to
        # the uniform scheduler.
        payload = _small_spec().to_dict()
        del payload["scheduler"]
        assert RobustnessSpec.from_dict(payload).scheduler == "uniform"

    def test_validation(self):
        with pytest.raises(ExperimentError, match="fault family"):
            _small_spec(faults="meteor")
        with pytest.raises(ExperimentError, match="max_steps"):
            _small_spec(max_steps=None)
        with pytest.raises(ExperimentError, match="integers"):
            _small_spec(loads=(0, 0.5))  # crash loads are counts
        with pytest.raises(ExperimentError, match="rates"):
            _small_spec(faults="edge-drop", loads=(1.5,))
        with pytest.raises(ExperimentError, match="protocol"):
            _small_spec(protocols=())
        with pytest.raises(ExperimentError, match="load"):
            _small_spec(loads=())
        for budget in ("10", 0, -5, 2.5):
            with pytest.raises(ExperimentError, match="max_steps"):
                _small_spec(max_steps=budget)
        for interval in (0, -1, True, 2.5, "4"):
            with pytest.raises(ExperimentError, match="check_interval"):
                _small_spec(check_interval=interval)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 8.5), ("n", 14.0), ("n", "14"), ("trials", 2.5),
         ("trials", True), ("trials", "4")],
    )
    def test_counts_must_be_integers(self, field, value):
        """The population and the trial count are refused unless they
        are integers, as ``check_interval`` is: ``n = 8.5`` would
        otherwise fail only in ``expand`` and ``trials = True`` run one
        trial."""
        name = "population" if field == "n" else field
        with pytest.raises(ExperimentError, match=f"{name} must be an integer"):
            _small_spec(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("base_seed", True), ("base_seed", 2.5), ("base_seed", "x"),
         ("base_seed", None), ("at", "100"), ("at", 100.0), ("at", True)],
    )
    def test_seed_and_fault_step_must_be_integers(self, field, value):
        """A seed or a fault step that is not an ``int`` is refused:
        ``at="100"`` would otherwise be kept as a string ``fault_at``."""
        with pytest.raises(ExperimentError, match=f"{field} must be an integer"):
            _small_spec(**{field: value})

    def test_fault_step_is_at_least_zero_and_seeds_may_be_negative(self):
        with pytest.raises(ExperimentError, match="at must be >= 0"):
            _small_spec(at=-1)
        assert _small_spec(at=0).fault_at == 0
        assert _small_spec(at=None).fault_at == 14 * 14
        assert _small_spec(base_seed=-7).base_seed == -7

    def test_families_registry(self):
        assert set(FAULT_FAMILIES) == {
            "crash", "edge-drop", "edge-rate", "churn", "byzantine",
        }

    def test_expansion_order_and_count(self):
        spec = _small_spec(trials=3)
        trials = spec.expand()
        assert len(trials) == 2 * 3 * 3
        assert trials[0].protocol == "simple-global-line"
        assert [t.load for t in trials[:9]] == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_seeds_are_paired_across_protocols(self):
        spec = _small_spec(trials=3)
        by_protocol = {
            p: [
                (t.load, t.trial, t.seed, t.fault)
                for t in spec.expand()
                if t.protocol == p
            ]
            for p in spec.protocols
        }
        assert by_protocol["simple-global-line"] == by_protocol["ft-global-line"]

    def test_spec_dict_round_trip(self):
        spec = _small_spec(at=123, label="x")
        assert RobustnessSpec.from_dict(spec.to_dict()) == spec


class TestRobustnessExecution:
    @pytest.fixture(scope="class")
    def result(self) -> RobustnessResult:
        return run_robustness(_small_spec())

    def test_survival_curves_and_dominance(self, result):
        ft = result.survival_curve("ft-global-line")
        plain = result.survival_curve("simple-global-line")
        # Both protocols are identical without faults...
        assert ft[0] == plain[0] == 1.0
        # ...and the fault-tolerant one survives everything while the
        # plain line loses runs as the crash load grows.
        assert all(rate == 1.0 for rate in ft.values())
        assert plain[2] < 1.0
        assert result.dominates("ft-global-line", "simple-global-line")
        assert not result.dominates("simple-global-line", "ft-global-line")

    def test_restabilization_curve(self, result):
        curve = result.restabilization_curve("ft-global-line")
        assert set(curve) == {0, 1, 2}
        assert all(v is not None and v > 0 for v in curve.values())

    def test_records_are_complete(self, result):
        assert len(result.records) == 2 * 3 * 4
        for record in result.records:
            assert record.steps <= result.spec.max_steps
            assert record.alive == record.n - (
                record.load if record.load else 0
            )
            if record.survived:
                assert record.converged

    def test_baseline_cells_identical_across_protocols(self, result):
        # Load 0 runs the default scenario with paired seeds; the two
        # line protocols have identical faultless dynamics, so their
        # baseline cells must agree trial by trial.
        plain = [
            (r.trial, r.value, r.steps)
            for r in result.records_for("simple-global-line", 0)
        ]
        ft = [
            (r.trial, r.value, r.steps)
            for r in result.records_for("ft-global-line", 0)
        ]
        assert plain == ft

    def test_json_round_trip(self, result):
        clone = RobustnessResult.from_json(result.to_json())
        assert clone == result
        assert clone.spec == result.spec

    def test_dump_load_file(self, result, tmp_path):
        path = tmp_path / "robustness.json"
        dump(result, str(path))
        assert load(RobustnessResult, str(path)) == result
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["spec"]["faults"] == "crash"

    def test_executor_equivalence(self, result):
        parallel = run_robustness(result.spec, jobs=2)
        assert [r.deterministic() for r in parallel.records] == [
            r.deterministic() for r in result.records
        ]

    def test_single_trial_matches_sweep(self, result):
        trial = result.spec.expand()[0]
        record = run_trial(trial)
        assert record.deterministic() == result.records[0].deterministic()

    def test_unknown_cell_raises(self, result):
        with pytest.raises(ExperimentError, match="no records"):
            result.survival_rate("ft-global-line", 99)


def _synthetic_result(curves: dict[str, dict[float, float]], loads=(0, 1, 2)):
    """A RobustnessResult with prescribed survival rates (4 trials per
    cell; rates must be multiples of 0.25)."""
    spec = _small_spec(protocols=tuple(curves), loads=tuple(loads))
    records = []
    for protocol, curve in curves.items():
        for load in loads:
            winners = round(curve[load] * 4)
            for trial in range(4):
                records.append(TrialRecord(
                    protocol=protocol, load=load, n=spec.n, trial=trial,
                    seed=trial, value=1.0, steps=100, effective_steps=50,
                    converged=True, survived=trial < winners, alive=spec.n,
                    stop_reason="stabilized", elapsed_seconds=0.0,
                ))
    return RobustnessResult(spec=spec, records=tuple(records))


class TestDominanceEdgeCases:
    def test_identical_curves_tie_both_ways(self):
        result = _synthetic_result({
            "simple-global-line": {0: 1.0, 1: 0.5, 2: 0.25},
            "ft-global-line": {0: 1.0, 1: 0.5, 2: 0.25},
        })
        assert not result.dominates("ft-global-line", "simple-global-line")
        assert not result.dominates("simple-global-line", "ft-global-line")

    def test_strict_win_at_one_positive_load_suffices(self):
        result = _synthetic_result({
            "simple-global-line": {0: 1.0, 1: 0.5, 2: 0.25},
            "ft-global-line": {0: 1.0, 1: 0.5, 2: 0.5},
        })
        assert result.dominates("ft-global-line", "simple-global-line")

    def test_load_zero_advantage_alone_does_not_dominate(self):
        # Winning only the faultless column is not fault tolerance.
        result = _synthetic_result({
            "simple-global-line": {0: 0.75, 1: 0.5, 2: 0.5},
            "ft-global-line": {0: 1.0, 1: 0.5, 2: 0.5},
        })
        assert not result.dominates("ft-global-line", "simple-global-line")

    def test_any_regression_forfeits_dominance(self):
        result = _synthetic_result({
            "simple-global-line": {0: 1.0, 1: 0.25, 2: 0.5},
            "ft-global-line": {0: 1.0, 1: 1.0, 2: 0.25},
        })
        assert not result.dominates("ft-global-line", "simple-global-line")

    def test_single_load_spec_never_dominates(self):
        # A loads=(0,) grid has no positive load to be strictly better
        # at, so dominance is unattainable by construction.
        result = _synthetic_result(
            {
                "simple-global-line": {0: 0.5},
                "ft-global-line": {0: 1.0},
            },
            loads=(0,),
        )
        assert not result.dominates("ft-global-line", "simple-global-line")

    def test_missing_cells_raise_not_mislead(self):
        result = _synthetic_result({
            "simple-global-line": {0: 1.0, 1: 0.5, 2: 0.25},
            "ft-global-line": {0: 1.0, 1: 0.5, 2: 0.5},
        })
        with pytest.raises(ExperimentError, match="no records"):
            result.survival_rate("ft-global-line", 7)
        with pytest.raises(ExperimentError, match="no records"):
            result.dominates("rc-global-line", "simple-global-line")
        curve = result.survival_curve("ft-global-line")
        assert set(curve) == {0, 1, 2}


class TestRobustnessAllEngines:
    @pytest.mark.parametrize("engine", ["indexed", "sequential"])
    def test_grid_runs_on_every_engine(self, engine):
        spec = _small_spec(
            n=10, trials=2, loads=(0, 2), engine=engine,
            max_steps=500_000,
        )
        result = run_robustness(spec)
        assert len(result.records) == 8
        assert result.survival_rate("ft-global-line", 2) == 1.0


class TestRobustnessCli:
    def test_cli_end_to_end(self, capsys, tmp_path):
        out = tmp_path / "cli.json"
        rc = main([
            "robustness", "simple-global-line", "ft-global-line",
            "--faults", "crash", "--loads", "0,2", "-n", "12",
            "--trials", "3", "--max-steps", "2000000",
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "survival" in text
        assert "ft-global-line dominates simple-global-line" in text
        loaded = load(RobustnessResult, str(out))
        assert loaded.spec.loads == (0, 2)
        assert loaded.dominates("ft-global-line", "simple-global-line")

    def test_cli_defaults_budget(self, capsys):
        rc = main([
            "robustness", "ft-global-line", "--loads", "0", "-n", "8",
            "--trials", "1",
        ])
        assert rc == 0
        assert "defaulting --max-steps" in capsys.readouterr().out

    def test_cli_rejects_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "robustness", "ft-global-line", "--faults", "meteor",
                "--loads", "0",
            ])


class TestBenchRobustness:
    def test_bench_record_and_formatting(self, tmp_path):
        out = tmp_path / "BENCH_robustness.json"
        record = bench_robustness(
            protocols=("simple-global-line", "ft-global-line"),
            families={"crash": (0, 2)},
            n=12, trials=2, jobs=1, out=str(out),
        )
        assert record["schema"] == "repro-bench-robustness/2"
        assert record["protocols"] == ["simple-global-line", "ft-global-line"]
        fam = record["families"]["crash"]
        assert fam["trial_count"] == 2 * 2 * 2
        assert fam["survival"]["ft-global-line"]["2"] == 1.0
        assert fam["dominates"]["ft-global-line"]["simple-global-line"] is True
        assert fam["dominates"]["simple-global-line"]["ft-global-line"] is False
        assert json.loads(out.read_text())["schema"] == record["schema"]
        text = format_bench_robustness(record)
        assert "crash" in text
        assert "ft-global-line dominates simple-global-line" in text

    def test_bench_default_families_cover_adversarial_axis(self):
        assert "rc-global-line" in ROBUSTNESS_PROTOCOLS
        assert {"byzantine", "edge-drop"} <= set(ROBUSTNESS_FAMILIES)
        assert set(ROBUSTNESS_FAMILIES) <= set(FAULT_FAMILIES)
        for loads in ROBUSTNESS_FAMILIES.values():
            assert loads[0] == 0  # every grid anchors a fault-free column

    def test_cli_passes_the_grid_defaults(self, monkeypatch, capsys):
        calls = []

        def recorder(**kwargs):
            calls.append(kwargs)
            return {"families": {}, "elapsed_seconds": 0.0}

        monkeypatch.setattr("repro.cli.bench_robustness", recorder)
        assert main(["bench", "--robustness"]) == 0
        assert main(["bench", "--robustness", "--out", "-"]) == 0
        assert calls == [
            dict(trials=4, jobs=1, base_seed=0, out="BENCH_robustness.json"),
            dict(trials=4, jobs=1, base_seed=0, out=None),
        ]
        assert capsys.readouterr().out.count("wrote ") == 1

    @pytest.mark.parametrize("argv", [["bench"], ["bench", "--runner"]])
    def test_cli_requires_the_robustness_flag(self, argv, monkeypatch):
        # Were the parse to succeed, calling None would raise TypeError.
        monkeypatch.setattr("repro.cli.bench_robustness", None)
        with pytest.raises(SystemExit):
            main(argv)
