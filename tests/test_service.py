"""The experiment service: keys, store, cache plumbing, jobs, HTTP API.

Pins the three contracts of the service layer:

* **Key stability** — a trial's content address is a pure function of
  its canonical spec payload and the protocol's behavior digest: stable
  across processes and dict orderings, changed by exactly the things
  that change the record (rule table, schema version, scenario).
* **Cache transparency** — a warm sweep performs *zero* engine
  executions (asserted via the in-process execution counter on the
  serial executor) and returns a byte-identical result.
* **Service round-trip** — submit → status → results through the
  running HTTP service, under both serial and multi-worker execution,
  with the second submission served 100% from the store.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os

import pytest

from repro.analysis import runner as runner_mod
from repro.analysis.robustness import (
    RobustnessResult,
    RobustnessSpec,
    run_robustness,
)
from repro.analysis.runner import (
    ExperimentSpec,
    Runner,
    SweepResult,
    TrialRecord,
    TrialSpec,
)
from repro.core.protocol import TableProtocol
from repro.core.scenario import Scenario
from repro.core.serialization import dump
from repro.service import keys as keys_mod
from repro.service.jobs import JobService, kind_of
from repro.service.keys import (
    behavior_digest,
    clear_digest_cache,
    code_digest,
    trial_key,
)
from repro.service.store import ResultStore, StoreError

SPEC = ExperimentSpec(protocol="cycle-cover", sizes=(8, 12), trials=3)

TRIAL = TrialSpec(protocol="cycle-cover", n=10, trial=2, seed=77)

# Byte-identity pins.  A store filled by earlier code must stay a cache
# hit, so the keys and the exact bytes of an entry are frozen here; the
# code version is fixed so a protocol edit does not move them.
PIN_CODE_VERSION = "0" * 64
PIN_ROBUSTNESS_TRIAL = TrialSpec(
    protocol="cycle-cover", n=10, trial=2, seed=77, max_steps=200_000,
    load=1.0, fault="crash",
)
PIN_TRIAL_KEY = (
    "c9fe9240e66b1099cad1cd7d3e2ab848913db19898a1bc40ce8bb36772f71e65"
)
PIN_ROBUSTNESS_KEY = (
    "58f0df2d83aa05f0d1e13531c584e47375e851f751bd1403338cde4caef500df"
)
PIN_TRIAL_RECORD = TrialRecord(
    n=10, trial=2, seed=77, value=123, steps=4567, effective_steps=89,
    converged=True, stop_reason="stabilized", elapsed_seconds=0.125,
)
PIN_ROBUSTNESS_RECORD = TrialRecord(
    protocol="cycle-cover", load=1.0, n=10, trial=2, seed=77, value=321,
    steps=6543, effective_steps=98, converged=True, survived=False,
    alive=9, stop_reason="stabilized", elapsed_seconds=0.25,
)
PIN_TRIAL_ENTRY = (
    b'{"key":"c9fe9240e66b1099cad1cd7d3e2ab848913db19898a1bc40ce8bb36772f7'
    b'1e65","kind":"trial","record":{"converged":true,"effective_steps":89,'
    b'"elapsed_seconds":0.125,"n":10,"seed":77,"steps":4567,"stop_reason":'
    b'"stabilized","trial":2,"value":123},"version":1}'
)
PIN_ROBUSTNESS_ENTRY = (
    b'{"key":"58f0df2d83aa05f0d1e13531c584e47375e851f751bd1403338cde4caef5'
    b'00df","kind":"robustness","record":{"alive":9,"converged":true,'
    b'"effective_steps":98,"elapsed_seconds":0.25,"load":1.0,"n":10,'
    b'"protocol":"cycle-cover","seed":77,"steps":6543,"stop_reason":'
    b'"stabilized","survived":false,"trial":2,"value":321},"version":1}'
)
# Real family cells whose fault strings Scenario canonicalizes into a
# different order (crash: at before count; byzantine: lie added, rate
# as 1e-05): their keys hash the family's raw fault string.
PIN_FAMILY_KEYS = {
    "crash": (
        RobustnessSpec(
            protocols=("cycle-cover",), loads=(0, 1), n=10, trials=1,
            faults="crash", max_steps=200_000,
        ).expand()[1],
        "2a94cf3027e3a6acaaa5af12763348616860cc8e0ed7576c1e88ea2248c041e5",
    ),
    "byzantine": (
        RobustnessSpec(
            protocols=("cycle-cover",), loads=(1,), n=10, trials=1,
            faults="byzantine", max_steps=200_000,
        ).expand()[0],
        "c02589aefdc0adece7aeb040609fc91c2fb3e2de9d0006c7e35c1da8bbbfd94c",
    ),
}
# The --out files of `repro-net sweep` and `robustness`: results built
# from fixed records (no engine run) and the exact payload they dump.
PIN_SWEEP_RESULT = SweepResult(
    spec=ExperimentSpec(
        protocol="cycle-cover", sizes=(8, 12), trials=1, max_steps=50_000,
        scenario=Scenario(faults=("crash:count=1,at=64",)), label="pin",
    ),
    records=(
        TrialRecord(
            n=8, trial=0, seed=11, value=40, steps=400, effective_steps=30,
            converged=True, stop_reason="stabilized", elapsed_seconds=0.5,
        ),
        TrialRecord(
            n=12, trial=0, seed=12, value=90, steps=900, effective_steps=70,
            converged=False, stop_reason="budget", elapsed_seconds=1.25,
        ),
    ),
)
PIN_SWEEP_OUT = {
    "version": 1,
    "spec": {
        "version": 1, "protocol": "cycle-cover", "sizes": [8, 12],
        "trials": 1, "engine": "indexed", "measure": "output",
        "seed_policy": "hashed", "base_seed": 0, "max_steps": 50000,
        "check_interval": 1, "label": "pin",
        "scenario": {
            "scheduler": "uniform", "faults": ["crash:at=64,count=1"],
            "init": "",
        },
    },
    "records": [
        {
            "n": 8, "trial": 0, "seed": 11, "value": 40, "steps": 400,
            "effective_steps": 30, "converged": True,
            "stop_reason": "stabilized", "elapsed_seconds": 0.5,
        },
        {
            "n": 12, "trial": 0, "seed": 12, "value": 90, "steps": 900,
            "effective_steps": 70, "converged": False,
            "stop_reason": "budget", "elapsed_seconds": 1.25,
        },
    ],
}
PIN_ROBUSTNESS_RESULT = RobustnessResult(
    spec=RobustnessSpec(
        protocols=("simple-global-line", "ft-global-line"), loads=(0, 1),
        n=8, trials=1, faults="crash", max_steps=100_000, label="pin",
    ),
    records=(
        TrialRecord(
            protocol="simple-global-line", load=0, n=8, trial=0, seed=5,
            value=10, steps=100, effective_steps=20, converged=True,
            survived=True, alive=8, stop_reason="stabilized",
            elapsed_seconds=0.5,
        ),
        TrialRecord(
            protocol="ft-global-line", load=1, n=8, trial=0, seed=6,
            value=30, steps=300, effective_steps=40, converged=False,
            survived=False, alive=7, stop_reason="budget",
            elapsed_seconds=0.75,
        ),
    ),
)
PIN_ROBUSTNESS_OUT = {
    "version": 1,
    "spec": {
        "version": 1, "protocols": ["simple-global-line", "ft-global-line"],
        "loads": [0, 1], "n": 8, "trials": 1, "faults": "crash",
        "at": None, "scheduler": "uniform", "engine": "indexed",
        "measure": "output", "base_seed": 0, "max_steps": 100000,
        "check_interval": 1, "label": "pin",
    },
    "records": [
        {
            "protocol": "simple-global-line", "load": 0, "n": 8,
            "trial": 0, "seed": 5, "value": 10, "steps": 100,
            "effective_steps": 20, "converged": True, "survived": True,
            "alive": 8, "stop_reason": "stabilized",
            "elapsed_seconds": 0.5,
        },
        {
            "protocol": "ft-global-line", "load": 1, "n": 8, "trial": 0,
            "seed": 6, "value": 30, "steps": 300, "effective_steps": 40,
            "converged": False, "survived": False, "alive": 7,
            "stop_reason": "budget", "elapsed_seconds": 0.75,
        },
    ],
}


def _key_in_subprocess(_=None) -> str:
    """Module-level so a spawn-context worker can pickle and run it."""
    return trial_key(TRIAL)


class TestKeys:
    def test_key_is_stable_within_a_process(self):
        assert trial_key(TRIAL) == trial_key(TRIAL)

    def test_key_is_stable_across_processes(self):
        # A spawn child re-imports everything under its own hash
        # randomization; the key must come out identical.
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child_key = pool.apply(_key_in_subprocess)
        assert child_key == trial_key(TRIAL)

    def test_key_ignores_payload_dict_ordering(self):
        from repro.service.keys import canonical_payload, key_payload

        payload = key_payload(TRIAL)
        shuffled = dict(reversed(list(payload.items())))
        assert canonical_payload(payload) == canonical_payload(shuffled)

    def test_key_changes_with_every_spec_field(self):
        from dataclasses import replace

        base = trial_key(TRIAL)
        variants = [
            replace(TRIAL, n=11),
            replace(TRIAL, trial=3),
            replace(TRIAL, seed=78),
            replace(TRIAL, engine="count"),
            replace(TRIAL, measure="quiescence"),
            replace(TRIAL, max_steps=10_000),
            replace(TRIAL, scenario=Scenario(scheduler="round-robin")),
        ]
        keys = [trial_key(v) for v in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)

    def test_key_changes_with_the_rule_table(self):
        table = {("a", "a", 0): ("b", "b", 1)}
        one = TableProtocol("probe", "a", dict(table))
        table[("b", "b", 1)] = ("a", "a", 0)
        two = TableProtocol("probe", "a", dict(table))
        assert behavior_digest(one) != behavior_digest(two)

    def test_key_changes_with_the_schema_version(self, monkeypatch):
        before = trial_key(TRIAL)
        monkeypatch.setattr(keys_mod, "SCHEMA_VERSION", 999)
        clear_digest_cache()
        try:
            assert trial_key(TRIAL) != before
        finally:
            clear_digest_cache()

    def test_sweep_and_robustness_key_spaces_never_collide(self):
        # Same protocol/n/trial/seed on both sides; the payload kind
        # tag must still separate them.
        r = TrialSpec(
            protocol="cycle-cover", n=10, trial=2, seed=77, load=0.0
        )
        assert trial_key(r) != trial_key(TRIAL)

    def test_code_digest_is_memoized_per_canonical_spec(self):
        clear_digest_cache()
        first = code_digest("cycle-cover")
        assert code_digest("cycle-cover") is first


class TestByteIdentity:
    def test_trial_key_is_pinned(self):
        assert trial_key(TRIAL, code_version=PIN_CODE_VERSION) == PIN_TRIAL_KEY

    def test_robustness_key_is_pinned(self):
        key = trial_key(PIN_ROBUSTNESS_TRIAL, code_version=PIN_CODE_VERSION)
        assert key == PIN_ROBUSTNESS_KEY

    @pytest.mark.parametrize("family", sorted(PIN_FAMILY_KEYS))
    def test_fault_family_cell_keys_are_pinned(self, family):
        trial, pinned = PIN_FAMILY_KEYS[family]
        assert trial_key(trial, code_version=PIN_CODE_VERSION) == pinned

    @pytest.mark.parametrize(
        "result, pinned",
        [
            (PIN_SWEEP_RESULT, PIN_SWEEP_OUT),
            (PIN_ROBUSTNESS_RESULT, PIN_ROBUSTNESS_OUT),
        ],
        ids=["sweep", "robustness"],
    )
    def test_out_file_bytes_are_pinned(self, result, pinned, tmp_path):
        path = tmp_path / "out.json"
        dump(result, str(path))
        expected = json.dumps(pinned, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        assert type(result).from_dict(pinned) == result

    def test_put_writes_the_pinned_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(PIN_TRIAL_KEY, PIN_TRIAL_RECORD, "trial")
        store.put(PIN_ROBUSTNESS_KEY, PIN_ROBUSTNESS_RECORD, "robustness")
        assert store.path(PIN_TRIAL_KEY).read_bytes() == PIN_TRIAL_ENTRY
        assert (
            store.path(PIN_ROBUSTNESS_KEY).read_bytes() == PIN_ROBUSTNESS_ENTRY
        )

    def test_a_store_written_by_earlier_code_reads_as_hits(self, tmp_path):
        for key, entry in (
            (PIN_TRIAL_KEY, PIN_TRIAL_ENTRY),
            (PIN_ROBUSTNESS_KEY, PIN_ROBUSTNESS_ENTRY),
        ):
            shard = tmp_path / key[:2]
            shard.mkdir()
            (shard / f"{key}.json").write_bytes(entry)
        store = ResultStore(tmp_path)
        assert store.get(PIN_TRIAL_KEY) == PIN_TRIAL_RECORD
        assert store.get(PIN_ROBUSTNESS_KEY) == PIN_ROBUSTNESS_RECORD
        stats = store.stats()
        assert (stats.entries, stats.hits, stats.misses) == (2, 2, 0)


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        record = runner_mod.run_trial(TRIAL)
        key = trial_key(TRIAL)
        assert store.get(key) is None  # miss first
        store.put(key, record, "trial")
        assert store.get(key) == record
        stats = store.stats()
        assert (stats.entries, stats.hits, stats.misses, stats.puts) == (
            1, 1, 1, 1,
        )
        assert stats.hit_rate == 0.5

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(StoreError, match="malformed"):
            store.path("../../etc/passwd")

    def test_crashed_writer_leaves_only_a_tmp_that_gc_collects(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        record = runner_mod.run_trial(TRIAL)
        key = trial_key(TRIAL)
        store.put(key, record, "trial")
        # Simulate a writer that died between write_text and os.replace.
        shard = store.path(key).parent
        (shard / f"{key}.json.tmp").write_text('{"half": "written')
        assert store.get(key) == record  # the real entry is untouched
        gc = store.gc()
        assert gc.removed_tmp == 1 and gc.kept == 1
        assert not list(shard.glob("*.tmp"))

    def test_two_puts_of_one_key_both_succeed(self, tmp_path, monkeypatch):
        # A second writer stores the key between the first writer's
        # write and its rename.  With one tmp name per key, the second
        # rename took the first writer's tmp away and its own rename
        # raised StoreError.
        store = ResultStore(tmp_path)
        other = ResultStore(tmp_path)
        real_replace = os.replace
        interleaved = []

        def replace(src, dst):
            if not interleaved:
                interleaved.append(src)
                other.put(PIN_TRIAL_KEY, PIN_TRIAL_RECORD, "trial")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        store.put(PIN_TRIAL_KEY, PIN_TRIAL_RECORD, "trial")
        assert interleaved
        assert store.get(PIN_TRIAL_KEY) == PIN_TRIAL_RECORD
        assert (store.puts, other.puts) == (1, 1)
        assert store.stats().entries == 1
        assert not list(tmp_path.rglob("*.tmp"))

    def test_gc_removes_corrupt_and_mis_keyed_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        record = runner_mod.run_trial(TRIAL)
        key = trial_key(TRIAL)
        store.put(key, record, "trial")
        # Corrupt JSON under a plausible key.
        bad_key = "ab" + "0" * 62
        bad = store.path(bad_key)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("not json")
        # Valid envelope, filename that does not match the stored key.
        wrong = store.path("cd" + "1" * 62)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(store.path(key).read_text())
        assert store.get(bad_key) is None  # corrupt reads are misses
        gc = store.gc()
        assert gc.removed_invalid == 2 and gc.kept == 1
        assert store.get(key) == record
        # Emptied shards are pruned.
        assert not wrong.parent.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: {**entry, "version": 999},
            lambda entry: {
                **entry,
                "record": {
                    k: v for k, v in entry["record"].items() if k != "trial"
                },
            },
            lambda entry: {k: v for k, v in entry.items() if k != "key"},
            lambda entry: {**entry, "record": list(entry["record"].values())},
        ],
        ids=["version-999", "record-missing-field", "no-key", "record-list"],
    )
    def test_version_skewed_entry_is_a_miss(self, tmp_path, corrupt):
        # Each corrupt entry still parses as JSON: it must read as a
        # miss and be collected, never raise.
        store = ResultStore(tmp_path)
        record = runner_mod.run_trial(TRIAL)
        key = trial_key(TRIAL)
        store.put(key, record, "trial")
        payload = json.loads(store.path(key).read_text())
        store.path(key).write_text(json.dumps(corrupt(payload)))
        assert store.get(key) is None
        gc = store.gc()
        assert (gc.removed_invalid, gc.kept) == (1, 0)


class TestCachedExecution:
    def test_warm_sweep_runs_zero_engine_steps_and_is_byte_identical(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        cold = Runner(jobs=1, cache=store).run(SPEC)
        counter = runner_mod.EXECUTION_COUNTER.count
        warm = Runner(jobs=1, cache=store).run(SPEC)
        assert runner_mod.EXECUTION_COUNTER.count == counter, (
            "warm sweep executed trials despite a fully warm store"
        )
        assert warm.to_json() == cold.to_json()

    def test_partially_warm_store_executes_only_the_misses(self, tmp_path):
        from dataclasses import replace

        store = ResultStore(tmp_path)
        small = ExperimentSpec(protocol="cycle-cover", sizes=(8,), trials=3)
        Runner(jobs=1, cache=store).run(small)
        grown = ExperimentSpec(protocol="cycle-cover", sizes=(8,), trials=5)
        counter = runner_mod.EXECUTION_COUNTER.count
        result = Runner(jobs=1, cache=store).run(grown)
        assert runner_mod.EXECUTION_COUNTER.count == counter + 2
        assert len(result.records) == 5
        # run_robustness shares the store loop: a grown grid runs only
        # its new trials and reassembles the records in trial order.
        grid = RobustnessSpec(
            protocols=("cycle-cover",), loads=(0, 1), n=8, trials=2,
            max_steps=200_000,
        )
        cold = run_robustness(grid, cache=store)
        counter = runner_mod.EXECUTION_COUNTER.count
        warm = run_robustness(replace(grid, trials=3), cache=store)
        assert runner_mod.EXECUTION_COUNTER.count == counter + 2
        assert [r for r in warm.records if r.trial < 2] == list(cold.records)
        assert [(r.load, r.trial) for r in warm.records] == [
            (load, trial) for load in (0, 1) for trial in range(3)
        ]

    def test_cache_composes_with_the_process_executor(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = Runner(jobs=1, cache=store).run(SPEC)
        warm = Runner(jobs=2, cache=store).run(SPEC)
        assert warm.to_json() == cold.to_json()
        assert store.stats().hits >= len(SPEC.expand())

    def test_run_robustness_cache_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RobustnessSpec(
            protocols=("cycle-cover",), loads=(0.0, 1.0), n=8, trials=2,
            max_steps=200_000,
        )
        cold = run_robustness(spec, cache=store)
        counter = runner_mod.EXECUTION_COUNTER.count
        warm = run_robustness(spec, cache=store)
        assert runner_mod.EXECUTION_COUNTER.count == counter
        assert warm.to_json() == cold.to_json()

    def test_run_trials_uses_the_cache_for_registry_specs(self, tmp_path):
        # Legacy-seeded trials of a registry spec have a content address
        # too: a warm re-run executes nothing and returns the cold values.
        store = ResultStore(tmp_path)
        spec = ExperimentSpec(
            protocol="cycle-cover", sizes=(8,), trials=3,
            seed_policy="legacy",
        )
        cold = Runner(cache=store).run(spec)
        counter = runner_mod.EXECUTION_COUNTER.count
        warm = Runner(cache=store).run(spec)
        assert runner_mod.EXECUTION_COUNTER.count == counter
        assert warm.times(8) == cold.times(8)

    def test_cli_run_stores_the_record_a_sweep_computes(self, tmp_path):
        from repro.cli import main

        argv = ["run", "cycle-cover", "-n", "12", "--seed", "5"]
        assert main([*argv, "--cache", str(tmp_path)]) == 0
        # `run --seed S` is trial 0 of a legacy sweep with base seed S.
        spec = ExperimentSpec(
            protocol="cycle-cover", sizes=(12,), trials=1, base_seed=5,
            seed_policy="legacy",
        )
        counter = runner_mod.EXECUTION_COUNTER.count
        (stored,) = Runner(cache=ResultStore(tmp_path)).run(spec).records
        assert runner_mod.EXECUTION_COUNTER.count == counter
        (fresh,) = Runner().run(spec).records
        assert stored.deterministic() == fresh.deterministic()
        assert stored.elapsed_seconds > 0


class TestJobService:
    def run(self, coro):
        return asyncio.run(coro)

    def test_kind_of_rejects_foreign_specs(self):
        from repro.service.jobs import JobError

        assert kind_of(SPEC) == "sweep"
        with pytest.raises(JobError, match="ExperimentSpec"):
            kind_of(object())

    def test_submit_wait_result_matches_direct_execution(self, tmp_path):
        async def scenario():
            service = JobService(store=ResultStore(tmp_path))
            job = await service.submit(SPEC)
            await service.wait(job.id)
            return job

        job = self.run(scenario())
        assert job.state == "done" and not job.partial
        direct = Runner(jobs=1).run(SPEC)
        assert [r.deterministic() for r in job.result().records] == [
            r.deterministic() for r in direct.records
        ]

    def test_resubmission_is_fully_cached_and_byte_identical(self, tmp_path):
        counter = runner_mod.EXECUTION_COUNTER

        async def scenario():
            service = JobService(store=ResultStore(tmp_path))
            start = counter.count
            first = await service.submit(SPEC)
            await service.wait(first.id)
            cold = counter.count
            second = await service.submit(SPEC)
            await service.wait(second.id)
            return first, second, cold - start, counter.count - cold

        first, second, cold_runs, warm_runs = self.run(scenario())
        # The store, not a fast engine, serves the warm pass.
        assert cold_runs == first.total
        assert warm_runs == 0
        assert first.cached == 0
        assert second.cached == second.total == len(SPEC.expand())
        assert second.result().to_json() == first.result().to_json()

    def test_cancel_before_execution_cancels_cleanly(self, tmp_path):
        async def scenario():
            service = JobService(store=ResultStore(tmp_path))
            job = await service.submit(SPEC)
            await service.cancel(job.id)
            await service.wait(job.id)
            return job

        job = self.run(scenario())
        assert job.state == "cancelled"
        assert job.finished_at is not None

    def test_status_dict_round_trips_the_spec(self, tmp_path):
        async def scenario():
            service = JobService(store=ResultStore(tmp_path))
            job = await service.submit(SPEC)
            await service.wait(job.id)
            return job.status_dict()

        status = self.run(scenario())
        assert ExperimentSpec.from_dict(status["spec"]) == SPEC
        assert status["state"] == "done"
        assert status["completed"] == status["total"]

    def test_failed_job_reports_the_error_instead_of_raising(self):
        bad = ExperimentSpec(
            protocol="simple-global-line", sizes=(8,), trials=1,
            engine="sequential", max_steps=10,
        )

        async def scenario():
            service = JobService()
            job = await service.submit(bad)
            await service.wait(job.id)
            return job

        job = self.run(scenario())
        assert job.state == "failed"
        assert job.error


@pytest.fixture(scope="module")
def live_service():
    """One HTTP service (ephemeral port, workers=1, fresh store) shared
    by the endpoint tests."""
    import tempfile

    from repro.service.api import ExperimentService

    with tempfile.TemporaryDirectory() as tmp:
        service = ExperimentService(store=ResultStore(tmp), port=0)
        service.start()
        try:
            yield service
        finally:
            service.stop()


class _ClientTests:
    """``self.client(service)`` hands out clients closed at teardown."""

    @pytest.fixture(autouse=True)
    def _close_clients(self):
        self.clients = []
        yield
        for client in self.clients:
            client.close()

    def client(self, service):
        from repro.service.client import ServiceClient

        self.clients.append(ServiceClient(service.url))
        return self.clients[-1]


class TestHttpService(_ClientTests):

    def test_health(self, live_service):
        payload = self.client(live_service).health()
        assert payload["ok"] is True
        assert payload["workers"] == 1
        assert payload["store"]["root"]

    def test_submit_status_results_round_trip_and_warm_resubmit(
        self, live_service
    ):
        client = self.client(live_service)
        job = client.submit(SPEC.to_dict())
        status = client.wait(job["id"], poll=0.05, timeout=120)
        assert status["state"] == "done"
        first = client.result(job["id"])
        assert first["partial"] is False
        job2 = client.submit(SPEC.to_dict())
        status2 = client.wait(job2["id"], poll=0.05, timeout=120)
        assert status2["cached"] == status2["total"]
        second = client.result(job2["id"])
        assert json.dumps(first["result"], sort_keys=True) == json.dumps(
            second["result"], sort_keys=True
        )
        from repro.analysis.runner import SweepResult

        rebuilt = SweepResult.from_dict(second["result"])
        assert rebuilt.spec == SPEC

    def test_multi_worker_service_agrees_with_serial(self, tmp_path):
        from repro.service.api import ExperimentService

        serial = json.dumps(
            Runner(jobs=1).run(SPEC).to_dict()["records"], sort_keys=True
        )
        service = ExperimentService(
            store=ResultStore(tmp_path), workers=2, port=0
        )
        service.start()
        try:
            client = self.client(service)
            job = client.submit(SPEC.to_dict())
            client.wait(job["id"], poll=0.05, timeout=180)
            parallel = client.result(job["id"])["result"]["records"]
        finally:
            service.stop()
        # Workers re-time each trial, so compare deterministically.
        stripped = [
            {**r, "elapsed_seconds": 0.0} for r in json.loads(serial)
        ]
        parallel = [{**r, "elapsed_seconds": 0.0} for r in parallel]
        assert parallel == stripped

    def test_unknown_job_is_a_clean_404(self, live_service):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError, match="unknown job"):
            self.client(live_service).status("job-999")

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("sweep", {"nonsense": True}),
            (
                "sweep",
                {k: v for k, v in SPEC.to_dict().items() if k != "engine"},
            ),
            ("sweep", {**SPEC.to_dict(), "sizes": 8}),
            ("sweep", {**SPEC.to_dict(), "trials": "2"}),
            ("sweep", {**SPEC.to_dict(), "scenario": "x"}),
            ("sweep", {**SPEC.to_dict(), "trails": 3}),
            ("sweep", {**SPEC.to_dict(), "check_interval": "4"}),
            ("sweep", {**SPEC.to_dict(), "check_interval": 0}),
            (
                "robustness",
                {
                    k: v
                    for k, v in RobustnessSpec(
                        protocols=("cycle-cover",), loads=(0,), n=8,
                        trials=1, max_steps=200_000,
                    ).to_dict().items()
                    if k != "n"
                },
            ),
            (
                "robustness",
                {
                    **RobustnessSpec(
                        protocols=("cycle-cover",), loads=(0,), n=8,
                        trials=1, max_steps=200_000,
                    ).to_dict(),
                    "check_interval": True,
                },
            ),
            ("sweep", {**SPEC.to_dict(), "trials": 2.5}),
            ("sweep", {**SPEC.to_dict(), "trials": True}),
            ("sweep", {**SPEC.to_dict(), "sizes": [8.5]}),
            ("sweep", {**SPEC.to_dict(), "sizes": ["8"]}),
            *(
                (
                    "robustness",
                    {
                        **RobustnessSpec(
                            protocols=("cycle-cover",), loads=(0,), n=8,
                            trials=1, max_steps=200_000,
                        ).to_dict(),
                        field: value,
                    },
                )
                for field, value in (("n", 8.5), ("trials", True))
            ),
        ],
        ids=[
            "nonsense", "no-engine", "sizes-int", "trials-str",
            "scenario-str", "unknown-field", "check-interval-str",
            "check-interval-zero", "robustness-no-n",
            "robustness-check-interval-bool", "trials-float", "trials-bool",
            "sizes-float", "sizes-str", "robustness-n-float",
            "robustness-trials-bool",
        ],
    )
    def test_bad_spec_is_a_clean_400(self, live_service, kind, payload):
        from repro.service.client import ServiceError

        client = self.client(live_service)
        before = len(client.jobs())
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload, kind=kind)
        assert excinfo.value.status == 400
        assert len(client.jobs()) == before

    def test_store_stats_and_gc_endpoints(self, live_service):
        client = self.client(live_service)
        stats = client.store_stats()
        assert set(stats) >= {"root", "entries", "hits", "misses"}
        gc = client.store_gc()
        assert gc["removed_tmp"] == 0

    def test_results_out_dash_writes_only_json_to_stdout(
        self, live_service, capsys
    ):
        from repro.cli import main

        client = self.client(live_service)
        job = client.submit(SPEC.to_dict())
        client.wait(job["id"], poll=0.05, timeout=120)
        argv = ["results", job["id"], "--url", live_service.url, "--out", "-"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == client.result(job["id"])["result"]
        assert "state     : done" in captured.err


class TestConnections(_ClientTests):
    """The client's kept-alive connections across a job's round trip,
    abandoned streams, service restarts and HTTP/1.0 peers."""

    def test_one_connection_carries_a_job_round_trip(self, live_service):
        client = self.client(live_service)
        job = client.submit(SPEC.to_dict())
        (conn,) = client._idle
        sock = conn.sock
        frames = list(client.events(job["id"]))
        assert frames[-1]["type"] == "end"
        assert client.result(job["id"])["state"] == "done"
        assert client._idle == [conn] and conn.sock is sock

    def test_abandoned_event_stream_leaves_the_client_usable(
        self, live_service
    ):
        client = self.client(live_service)
        job = client.submit(SPEC.to_dict())
        for frame in client.events(job["id"]):
            assert frame["type"] == "status"
            break
        assert client.result(job["id"])["id"] == job["id"]
        status = client.wait(job["id"], poll=0.05, timeout=120)
        assert status["state"] == "done"

    def test_client_reaches_a_service_restarted_on_the_same_port(
        self, tmp_path
    ):
        from repro.service.api import ExperimentService

        first = ExperimentService(store=ResultStore(tmp_path), port=0)
        first.start()
        client = self.client(first)
        try:
            job = client.submit(SPEC.to_dict())
            client.wait(job["id"], poll=0.05, timeout=120)
        finally:
            assert first.stop() == []
        second = ExperimentService(store=ResultStore(tmp_path), port=first.port)
        second.start()
        try:
            # A handler of the stopped service still holding the kept-
            # alive connection would answer 503 here.
            assert client.jobs() == []
            client.submit(SPEC.to_dict())
            assert len(second.jobs.jobs()) == 1
        finally:
            second.stop()

    def test_unreachable_service_is_a_clean_error(self):
        from repro.service.api import ExperimentService
        from repro.service.client import ServiceError

        service = ExperimentService(port=0)
        service.start()
        client = self.client(service)
        assert client.health()["ok"]
        service.stop()
        with pytest.raises(ServiceError, match="cannot reach service at"):
            client.health()

    def test_http10_event_stream_is_close_delimited(self, live_service):
        import socket

        from repro.service.sse import parse_sse

        client = self.client(live_service)
        job = client.submit(SPEC.to_dict())
        client.wait(job["id"], poll=0.05, timeout=120)
        request = f"GET /jobs/{job['id']}/events HTTP/1.0\r\n\r\n"
        raw = b""
        with socket.create_connection(
            (live_service.host, live_service.port), timeout=30
        ) as sock:
            sock.sendall(request.encode("ascii"))
            while chunk := sock.recv(65536):  # until the server closes
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding" not in head
        assert b"Connection: close" in head
        frames = list(parse_sse(body.splitlines(keepends=True)))
        assert frames[-1]["type"] == "end"

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_a_400_and_closes(
        self, live_service, length
    ):
        import socket

        request = (
            f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        raw = b""
        with socket.create_connection(
            (live_service.host, live_service.port), timeout=5
        ) as sock:
            sock.sendall(request.encode("ascii"))
            # The server closes the connection: the unread body would
            # otherwise be parsed as the next request.
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]


class TestShutdown:
    def test_stop_cancels_a_running_job_without_waiting_for_its_batch(
        self, monkeypatch
    ):
        import threading
        import time

        from repro.service import jobs as jobs_mod
        from repro.service.api import ExperimentService

        started, release = threading.Event(), threading.Event()

        def long_batch(fn, trials, workers):
            # Stands in for a batch of trials that run for minutes.
            started.set()
            release.wait(60)
            return []

        monkeypatch.setattr(jobs_mod, "pool_map", long_batch)
        before = set(threading.enumerate())
        service = ExperimentService(port=0)
        service.start()
        try:
            job = service.call(service.jobs.submit(SPEC))
            assert started.wait(30)
            assert job.state == "running"
            start = time.perf_counter()
            assert service.stop() == []
            assert time.perf_counter() - start < 2
            assert job.state == "cancelled"
            assert job.events.frames()[-1] == {
                "type": "end", "state": "cancelled", "error": "",
            }
            lingering = set(threading.enumerate()) - before
            assert all(thread.daemon for thread in lingering)
        finally:
            release.set()
            service.stop()


class TestPoolMap:
    def test_serial_and_process_paths_agree(self):
        trials = SPEC.expand()[:3]
        serial = runner_mod.pool_map(runner_mod.run_trial, trials, 1)
        parallel = runner_mod.pool_map(runner_mod.run_trial, trials, 2)
        assert [r.deterministic() for r in serial] == [
            r.deterministic() for r in parallel
        ]

    def test_executors_route_through_pool_map(self, tmp_path, monkeypatch):
        # Sweeps and robustness sweeps, with and without a store, all
        # fan out through the one pool entry point.
        calls = []
        real = runner_mod.pool_map

        def recording(fn, items, jobs):
            calls.append(fn)
            return real(fn, items, jobs)

        monkeypatch.setattr(runner_mod, "pool_map", recording)
        spec = ExperimentSpec(protocol="cycle-cover", sizes=(8,), trials=1)
        grid = RobustnessSpec(
            protocols=("cycle-cover",), loads=(0,), n=8, trials=1,
            max_steps=200_000,
        )
        for cache in (None, ResultStore(tmp_path)):
            Runner(cache=cache).run(spec)
            run_robustness(grid, cache=cache)
        assert calls == [runner_mod.run_trial] * 4
