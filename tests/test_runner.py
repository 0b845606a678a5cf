"""Tests for the declarative experiment layer (specs, Runner, serial and
parallel execution, seed policies, serialization)."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.analysis import runner as runner_mod
from repro.analysis.robustness import RobustnessSpec
from repro.analysis.runner import (
    SEED_POLICIES,
    ExperimentError,
    ExperimentSpec,
    Runner,
    SweepResult,
    TrialSpec,
    run_one,
    run_trial,
    summarize,
)
from repro.core.serialization import dump, load
from repro.core.simulator import make_engine
from repro.protocols import CycleCover, registry
from tests.conftest import trial_times

SMALL_SPEC = ExperimentSpec(
    protocol="cycle-cover", sizes=(6, 8), trials=3,
)

#: The Figure 2 line sweep, cut to two sizes.
FIGURE2_SPEC = ExperimentSpec(
    protocol="simple-global-line", sizes=(30, 60), trials=2,
)


class TestExperimentSpec:
    def test_protocol_canonicalized(self):
        spec = ExperimentSpec(protocol="3rc", sizes=(8,), trials=1)
        assert spec.protocol == "k-regular-connected:k=3"

    def test_canonical_specs_compare_equal(self):
        a = ExperimentSpec(protocol="4-cliques", sizes=(8,), trials=1)
        b = ExperimentSpec(protocol="c-cliques:c=4", sizes=(8,), trials=1)
        assert a == b

    def test_unknown_protocol_rejected(self):
        with pytest.raises(Exception, match="unknown protocol"):
            ExperimentSpec(protocol="nope", sizes=(8,), trials=1)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(sizes=(), trials=1), "at least one"),
            (dict(sizes=(8,), trials=0), "trials"),
            (dict(sizes=(8,), trials=1, engine="warp"), "unknown engine"),
            (dict(sizes=(8,), trials=1, measure="vibes"), "unknown measure"),
            (dict(sizes=(8,), trials=1, seed_policy="dice"), "seed policy"),
            (dict(sizes=(8,), trials=1, engine="sequential"), "max_steps"),
            (dict(sizes=(1,), trials=1), "sizes must be >= 2"),
            (dict(sizes=(8, 0), trials=1), "sizes must be >= 2"),
            (dict(sizes=(8,), trials=1, max_steps="10"), "max_steps"),
            (dict(sizes=(8,), trials=1, max_steps=0), "max_steps"),
            (dict(sizes=(8,), trials=1, max_steps=2.5), "max_steps"),
            *(
                (dict(sizes=(8,), trials=1, check_interval=bad),
                 "check_interval")
                for bad in (0, -1, True, 2.5, "4")
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ExperimentError, match=match):
            ExperimentSpec(protocol="global-star", **kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            *(
                (dict(sizes=(8,), trials=bad), "trials must be an integer")
                for bad in (2.5, True, "2")
            ),
            *(
                (dict(sizes=bad, trials=1), "sizes must be an integer")
                for bad in ((8.5,), ("8",), (8, 12.0))
            ),
        ],
    )
    def test_counts_must_be_integers(self, kwargs, match):
        """A float, bool or string count is refused when the spec is
        built, as a malformed ``check_interval`` is: it would otherwise
        run as some other count (``True`` as one trial, 8.5 as n = 8)
        or fail only once the sweep expands."""
        with pytest.raises(ExperimentError, match=match):
            ExperimentSpec(protocol="global-star", **kwargs)

    @pytest.mark.parametrize("policy", ["hashed", "legacy"])
    @pytest.mark.parametrize("bad", [True, 2.5, "x", "3", None])
    def test_base_seed_must_be_an_integer(self, policy, bad):
        """A bool, float, string or ``None`` seed is refused when the
        spec is built: under ``legacy`` a string fails only in
        ``expand`` and 2.5 stores records seeded 2.5, and under
        ``hashed`` each hashes as its text (``"None|..."``)."""
        with pytest.raises(ExperimentError, match="base_seed must be an integer"):
            ExperimentSpec(
                protocol="global-star", sizes=(8,), trials=1,
                seed_policy=policy, base_seed=bad,
            )

    def test_negative_base_seed_is_allowed(self):
        spec = ExperimentSpec(
            protocol="global-star", sizes=(8,), trials=2,
            seed_policy="legacy", base_seed=-3,
        )
        assert [t.seed for t in spec.expand()] == [-3, -2]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExperimentSpec(
                protocol="cycle-cover", sizes=(8, 8), trials=3,
            ),
            lambda: RobustnessSpec(
                protocols=("4-cliques", "c-cliques:c=4"), loads=(0, 1),
                n=8, trials=2, max_steps=10_000,
            ),
            lambda: RobustnessSpec(
                protocols=("cycle-cover",), loads=(0, 1, 1.0),
                n=8, trials=2, max_steps=10_000,
            ),
        ],
        ids=["sizes", "protocols", "loads"],
    )
    def test_repeated_axis_value_rejected(self, build):
        """A repeated cell would rerun its seeds and count them twice;
        values compare after canonicalization."""
        with pytest.raises(ExperimentError, match="twice"):
            build()

    def test_expand_covers_grid(self):
        trials = SMALL_SPEC.expand()
        assert [(t.n, t.trial) for t in trials] == [
            (6, 0), (6, 1), (6, 2), (8, 0), (8, 1), (8, 2),
        ]

    def test_hashed_seeds_decorrelate_sizes(self):
        by_n = {}
        for t in SMALL_SPEC.expand():
            by_n.setdefault(t.n, []).append(t.seed)
        assert set(by_n[6]).isdisjoint(by_n[8])

    def test_legacy_seeds_reproduce_seed_era_scheme(self):
        spec = ExperimentSpec(
            protocol="cycle-cover", sizes=(6, 8), trials=3,
            seed_policy="legacy", base_seed=7,
        )
        for t in spec.expand():
            assert t.seed == 7 + t.trial

    def test_hashed_seeds_deterministic(self):
        assert [t.seed for t in SMALL_SPEC.expand()] == [
            t.seed for t in SMALL_SPEC.expand()
        ]


class TestSerialization:
    def test_spec_json_round_trip(self):
        payload = json.loads(json.dumps(SMALL_SPEC.to_dict()))
        assert ExperimentSpec.from_dict(payload) == SMALL_SPEC

    def test_sweep_result_json_round_trip(self):
        result = Runner().run(SMALL_SPEC)
        clone = SweepResult.from_json(result.to_json())
        assert clone == result

    def test_sweep_result_file_round_trip(self, tmp_path):
        result = Runner().run(SMALL_SPEC)
        path = str(tmp_path / "sweep.json")
        dump(result, path)
        assert load(SweepResult, path) == result

    def test_summaries_match_summarize(self):
        result = Runner().run(SMALL_SPEC)
        summaries = result.summaries()
        for n in SMALL_SPEC.sizes:
            assert summaries[n] == summarize(n, result.times(n))


class TestExecutors:
    def test_registry_names(self):
        assert set(SEED_POLICIES) == {"hashed", "legacy"}

    def test_serial_and_process_identical(self):
        for spec in (SMALL_SPEC, FIGURE2_SPEC):
            serial = Runner(jobs=1).run(spec)
            parallel = Runner(jobs=2).run(spec)
            assert [r.deterministic() for r in serial.records] == [
                r.deterministic() for r in parallel.records
            ], spec.protocol

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="jobs"):
            Runner(jobs=0).run(SMALL_SPEC)

    def test_run_trial_matches_direct_engine_run(self):
        trial = TrialSpec(protocol="cycle-cover", n=8, trial=0, seed=42)
        record = run_trial(trial)
        result = make_engine("indexed", seed=42).run(CycleCover(), 8, None)
        assert record.value == result.last_output_change_step
        assert record.steps == result.steps
        assert record.converged

    def test_explicit_process_executor_at_one_job(self, monkeypatch):
        """A pool request with a single trial to run stays in-process
        (there is nothing to fan out) and returns the serial record."""
        spec = ExperimentSpec(protocol="cycle-cover", sizes=(8,), trials=1)
        serial = Runner(jobs=1).run(spec)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-trial sweep started a pool")

        monkeypatch.setattr(runner_mod.multiprocessing, "Pool", no_pool)
        pooled = Runner(jobs=2).run(spec)
        assert [r.deterministic() for r in pooled.records] == [
            r.deterministic() for r in serial.records
        ]


class TestSharedTables:
    """Trials of one spec share its protocol instance and compiled
    table; records must not depend on it."""

    SPEC = ExperimentSpec(protocol="global-ring", sizes=(8, 12, 16), trials=10)

    def test_shared_instance_compiles_once(self):
        protocol = registry.shared("global-ring")
        assert registry.shared("global-ring") is protocol
        assert protocol.compile() is protocol.compile()

    def test_two_threads_on_one_table(self):
        """Two threads run the same trials through run_trial at once, on
        one cold shared table (the overlap of a stopped service's batch
        with the next service's), and both return the records of cold
        serial runs on fresh instances."""
        trials = self.SPEC.expand()
        serial = [
            run_one(registry.instantiate(t.protocol), t)[0].deterministic()
            for t in trials
        ]
        registry.shared.cache_clear()
        # Switch threads as often as possible while both fill the table.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        barrier = threading.Barrier(2)
        out: list = [None, None]

        def work(slot):
            barrier.wait(timeout=60)
            out[slot] = [run_trial(t).deterministic() for t in trials]

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert out[0] == serial and out[1] == serial
        # No plan budget update was lost between the threads.
        table = registry.shared("global-ring").compile()
        orders = sum(len(order) + len(plan) for order, plan in table.visits.items())
        keys = sum(len(key) for key in table.plans)
        assert (table.plan_cells, table.key_cells) == (orders, keys)
        assert orders > 0 and keys > 0


class TestCompatibilityShims:
    """The legacy seed policy (seed = base_seed + trial) keeps the
    seed-era per-trial runs reproducible through the Runner."""

    def test_run_trials_legacy_seeds_bit_identical(self):
        """Every size of a legacy sweep reruns the seed-era trials bit
        for bit."""
        spec = ExperimentSpec(
            protocol="cycle-cover", sizes=(6, 8), trials=4,
            seed_policy="legacy", base_seed=3,
        )
        result = Runner().run(spec)
        for n in spec.sizes:
            expected = [
                make_engine("indexed", seed=3 + trial)
                .run(CycleCover(), n, None)
                .last_output_change_step
                for trial in range(4)
            ]
            assert result.times(n) == expected, n

    def test_measure_convergence_legacy_policy_available(self):
        spec = ExperimentSpec(
            protocol="cycle-cover", sizes=(6, 8), trials=3,
            seed_policy="legacy",
        )
        sweep = Runner().run(spec).summaries()
        assert sweep[6].trials == 3
        # Legacy cells share seeds; each cell matches a one-size legacy run.
        assert sweep[8] == summarize(8, trial_times("cycle-cover", 8, 3))
