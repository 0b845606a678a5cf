"""The four benchmark workloads.

Each workload turns the run's ``--seed`` into specs, runs them in
*passes* (one pass is one fixed batch of operations, the unit ``wall_s``
times) and checks every operation's output.  An operation is one trial
(engine workloads) or one job round trip (service workloads); the loop
is closed, with one operation in flight.

A workload can replay a pass by index with the same inputs, which is
how the traced run measures tracing overhead against an untraced run of
the same work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.protocols import registry

CLOCK = time.perf_counter


def derive(seed: int, *parts) -> int:
    """A 63-bit seed derived from the run seed and a label."""
    payload = "|".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


#: What :func:`host_probe` takes when the core this process runs on is
#: not slowed by other tenants, on the host the README baseline was
#: measured on.  Times are reported as ``measured * REFERENCE_PROBE_S /
#: probe``: at the reference host speed.
REFERENCE_PROBE_S = 0.0027


def host_probe() -> float:
    """Seconds a fixed interpreter-bound task takes right now.

    On a shared host the same work can run 1.7x slower for seconds at a
    time (another tenant on the sibling hardware thread).  Each
    operation is bracketed by this probe so its time can be stated at
    the reference host speed.  Three times the median of three short
    runs, so one interrupt does not skew it."""
    runs = []
    for _ in range(3):
        t0 = CLOCK()
        table: dict = {}
        acc = 0
        for i in range(6667):
            table[i & 255] = table.get(i & 255, 0) + i
            acc += i * i % 7
        runs.append(CLOCK() - t0)
    return 3 * sorted(runs)[1]


class Workload:
    """Base class: failure bookkeeping and the hooks the runner calls."""

    name = ""
    #: Modules a user of this workload imports (timed by the setup probe).
    setup_modules: tuple[str, ...] = ()
    #: Whether set-up includes opening a store and starting the server.
    starts_service = False
    #: The tail percentile reported (see ``stats.tail``): at the usual
    #: op count of a 20 s run, 100+ samples lie beyond p95.
    tail_pct = 95.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: engine seconds, steps and effective interactions of fresh runs
        self.engine = [0.0, 0, 0]
        self._probe: float | None = None

    @contextmanager
    def op(self, ops: list, tracer=None, name: str = "op"):
        """Time one operation; appends ``(seconds, host probe)`` to
        ``ops``, the probe being the mean of those just before and
        after it."""
        if self._probe is None:
            self._probe = host_probe()
        before = self._probe
        with nullcontext() if tracer is None else tracer.op(name):
            t0 = CLOCK()
            yield
            seconds = CLOCK() - t0
        self._probe = host_probe()
        ops.append((seconds, (before + self._probe) / 2))

    def check(self, ok: bool, what: str) -> None:
        """Count one operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def prepare(self) -> None:
        """Untimed warm-up before the first pass."""

    def begin_phase(self) -> None:
        """Called before a replay of earlier passes (traced run)."""

    def before_pass(self, index: int) -> None:
        """Untimed work due before pass ``index``."""

    def run_pass(self, index: int, tracer=None) -> list[tuple[float, float]]:
        """Run pass ``index``; returns each operation's ``(seconds, host
        probe)`` (see :meth:`op`)."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Workload-specific results (checks over the whole run)."""
        return {}

    def close(self) -> None:
        """Stop whatever the workload started."""

    def engine_rates(self) -> dict:
        seconds, steps, effective = self.engine
        if not effective or not seconds:
            return {}
        return {
            "us_per_effective": seconds / effective * 1e6,
            "steps_per_s": steps / seconds,
        }


class LineIndexed(Workload):
    """The Figure-2 line sweep on the indexed engine, trial by trial."""

    name = "line-indexed"
    setup_modules = ("repro.analysis.runner",)
    #: A 20 s run completes 25-60 trials, with host load: p75 leaves ten
    #: beyond from 40 up.
    tail_pct = 75.0
    protocol = "simple-global-line"
    #: One size keeps the per-trial latency distribution unimodal; with
    #: several sizes the median falls between size groups and jumps.
    sizes = (240,)
    trials_per_pass = 5

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.outcomes: dict[tuple[int, int], tuple[int, int]] = {}

    def trials(self, index):
        from repro.analysis.runner import ExperimentSpec

        return ExperimentSpec(
            protocol=self.protocol,
            sizes=self.sizes,
            trials=self.trials_per_pass,
            engine="indexed",
            base_seed=derive(self.seed, self.name, index),
        ).expand()

    def prepare(self) -> None:
        from repro.analysis import runner

        runner.run_trial(self.trials("warm-up")[0])

    def run_pass(self, index, tracer=None):
        from repro.analysis import runner

        ops = []
        for trial in self.trials(index):
            with self.op(ops, tracer, "op.trial"):
                record = runner.run_trial(trial)
            ok = record.converged and record.stop_reason == "stabilized"
            outcome = (record.steps, record.effective_steps)
            slot = (index, trial.trial)
            if tracer is None:
                self.outcomes[slot] = outcome
                self.engine[0] += record.elapsed_seconds
                self.engine[1] += record.steps
                self.engine[2] += record.effective_steps
            else:
                protocol, result = tracer.last_run
                target = registry.target_predicate(protocol)
                ok = ok and target is not None and target(result.config)
                ok = ok and self.outcomes.get(slot) == outcome
            self.check(ok, f"trial {slot} seed {trial.seed}: {record}")
        return ops


class CensusCount(Workload):
    """The one-way epidemic on the count engine, exact and leap sizes."""

    name = "census-count"
    setup_modules = ("repro.core.simulator", "repro.processes.analytics")
    protocol = "one-way-epidemic"
    #: One size below the leap threshold, two above.  An odd number of
    #: equally weighted sizes puts the median inside one size group.
    sizes = (2000, 30000, 100000)
    #: A size whose mean steps sit further than this many standard
    #: errors from (n-1)H(n-1) fails the law check.  A failure is
    #: reported, not counted in ``failed``: each trial is a correct run,
    #: it is the law its steps are drawn from that is off.
    law_band = 5.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.steps: dict[int, list[int]] = {n: [] for n in self.sizes}
        self.regimes: dict[int, set[str]] = {n: set() for n in self.sizes}
        self.outcomes: dict[tuple[int, int], tuple[int, int]] = {}
        self.leaps = [0, 0]  # leaps, firings
        self.leap_run_s = 0.0
        self.exact_runs = 0

    def run_trial(self, n: int, seed: int):
        """One trial: (RunResult, engine seconds, [leaps, firings])."""
        from repro.core import simulator

        leaps = [0, 0]

        def hook(steps, counts, ends, k):
            leaps[0] += 1
            leaps[1] += k

        protocol = registry.instantiate(self.protocol)
        sim = simulator.make_engine("count", seed=seed)
        sim.leap_hook = hook
        t0 = CLOCK()
        result = sim.run(protocol, n)
        return result, CLOCK() - t0, leaps

    def prepare(self) -> None:
        for n in self.sizes:
            self.run_trial(n, derive(self.seed, "warm-up", n))

    def run_pass(self, index, tracer=None):
        ops = []
        for n in self.sizes:
            seed = derive(self.seed, self.name, index, n)
            with self.op(ops, tracer, "op.trial"):
                result, engine_s, leaps = self.run_trial(n, seed)
            ok = (
                result.converged
                and result.stop_reason == "stabilized"
                and result.effective_steps == n - 1
                and result.config.state_counts() == {"a": n}
            )
            outcome = (result.steps, result.effective_steps)
            if tracer is None:
                self.outcomes[(index, n)] = outcome
                self.steps[n].append(result.steps)
                self.regimes[n].add("leap" if leaps[0] else "exact")
                self.engine[0] += engine_s
                self.engine[1] += result.steps
                self.engine[2] += result.effective_steps
            else:
                ok = ok and self.outcomes.get((index, n)) == outcome
                self.leaps[0] += leaps[0]
                self.leaps[1] += leaps[1]
                if leaps[0]:
                    self.leap_run_s += engine_s
                else:
                    self.exact_runs += 1
            self.check(ok, f"n={n} seed {seed}: {result.stop_reason} "
                           f"steps={result.steps} effective={result.effective_steps}")
        return ops

    def law(self) -> dict[int, dict]:
        """Per size: seeded mean steps against the exact expectation
        (n-1)H(n-1), in standard errors of the exact law's variance."""
        from repro.processes.analytics import one_way_epidemic_expectation

        out = {}
        for n, steps in self.steps.items():
            if not steps:
                continue
            expect = one_way_epidemic_expectation(n)
            m = n * (n - 1) / 2
            # Var of a sum of geometric waits with success p_i = i(n-i)/m.
            variance = sum(
                (1 - p) / (p * p)
                for p in (i * (n - i) / m for i in range(1, n))
            )
            mean = statistics.fmean(steps)
            z = (mean - expect) / math.sqrt(variance / len(steps))
            out[n] = {
                "trials": len(steps),
                "mean_steps": mean,
                "expected_steps": expect,
                "dev_pct": (mean / expect - 1) * 100,
                "z": z,
                "pass": abs(z) <= self.law_band,
            }
        return out

    def finish(self) -> dict:
        from repro.core.counting import CountSimulator

        law = self.law()
        failing = sum(row["trials"] for row in law.values() if not row["pass"])
        return {
            "law": {str(n): row for n, row in law.items()},
            "law_failed_trials": failing,
            "leap_threshold": CountSimulator.DEFAULT_LEAP_THRESHOLD,
            "regimes": {str(n): sorted(r) for n, r in self.regimes.items()},
        }


class _ServiceWorkload(Workload):
    """Jobs through the HTTP service, one ``ServiceClient``, workers=1.

    A job is submitted with ``stream=False``, followed on its SSE stream
    to the ``end`` frame, then fetched from ``/result``.  The service is
    replaced by a fresh one every :attr:`round_passes` passes (untimed,
    stopped in the background) because it keeps every job it ever ran:
    without rounds, memory and collector work would grow with the number
    of jobs a run completes, so a faster commit would read as a larger
    and slower one.
    """

    setup_modules = ("repro.service.api", "repro.service.client",
                     "repro.service.store")
    starts_service = True
    #: Job cost clusters by protocol.  With an even number of jobs per
    #: pass the median falls in the gap between two protocols' clusters
    #: and jumps between seeds; the eleventh (one-to-all-elimination)
    #: puts it inside one cluster.
    mix = (
        "global-star", "cycle-cover", "spanning-network", "fast-global-line",
        "global-ring", "simple-global-line", "maximum-matching", "node-cover",
        "one-way-epidemic", "one-to-one-elimination", "one-to-all-elimination",
    )
    sizes = (8, 12, 16)
    trials = 10
    round_passes = 40

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.service = None
        self._retired = None
        self.client = None
        self.round_count = 0
        self.passes_in_round = 0
        self._stopper: threading.Thread | None = None

    def specs(self, base_seed: int) -> list:
        from repro.analysis.runner import ExperimentSpec

        return [
            ExperimentSpec(protocol=p, sizes=self.sizes, trials=self.trials,
                           base_seed=base_seed)
            for p in self.mix
        ]

    def store_for_round(self):
        raise NotImplementedError

    def new_round(self) -> None:
        from repro.service.api import ExperimentService
        from repro.service.client import ServiceClient

        self.retire()
        self.round_count += 1
        self.passes_in_round = 0
        self.service = ExperimentService(
            store=self.store_for_round(), workers=1, port=0)
        self.service.start()
        self.client = ServiceClient(self.service.url, timeout=120.0)

    def retire(self) -> None:
        """Stop the current service in the background (its HTTP loop
        takes up to half a second to notice); at most one stop is
        pending at a time.  The stopped service is only released here,
        between passes, so freeing its jobs never lands inside a timed
        operation."""
        if self._stopper is not None:
            self._stopper.join()
            self._stopper = None
            self._retired = None
            gc.collect()
        if self.service is not None:
            self._retired = self.service
            self._stopper = threading.Thread(
                target=self.service.stop, name="perfbench-service-stop")
            self._stopper.start()
            self.service = None

    def close(self) -> None:
        self.retire()
        if self._stopper is not None:
            self._stopper.join()
            self._stopper = None

    def begin_phase(self) -> None:
        self.new_round()

    def before_pass(self, index: int) -> None:
        if self.passes_in_round >= self.round_passes:
            self.new_round()
        self.passes_in_round += 1

    def job(self, spec, ops: list, tracer=None) -> dict:
        """One round trip, timed into ``ops``; returns the /result payload."""
        client = self.client
        end = None
        with self.op(ops, tracer, "op.job"):
            with _span(tracer, "api.submit"):
                job = client.submit(spec.to_dict(), stream=False)
            with _span(tracer, "api.stream"):
                for frame in client.events(job["id"]):
                    if frame.get("type") == "end":
                        end = frame
            with _span(tracer, "api.result"):
                payload = client.result(job["id"])
        if tracer is not None:
            tracer.add("serialization.result_bytes",
                       len(json.dumps(payload).encode("utf-8")))
        if end is None or end.get("state") != "done":
            payload = dict(payload, state=f"stream ended with {end}")
        return payload

    @staticmethod
    def job_ok(payload: dict) -> bool:
        return (
            payload.get("state") == "done"
            and payload.get("completed") == payload.get("total")
            and not payload.get("partial")
        )


class ServiceCold(_ServiceWorkload):
    """Every job misses: a fresh store, new seeds each pass."""

    name = "service-cold"

    def store_for_round(self):
        from repro.service.store import ResultStore

        return ResultStore(self.work_dir / f"cold-store-{self.round_count}")

    def prepare(self) -> None:
        self.new_round()
        for spec in self.specs(derive(self.seed, "warm-up")):
            self.job(spec, [])

    def run_pass(self, index, tracer=None):
        ops = []
        for spec in self.specs(derive(self.seed, self.name, index)):
            payload = self.job(spec, ops, tracer)
            records = payload.get("result", {}).get("records", [])
            ok = (
                self.job_ok(payload)
                and payload.get("cached") == 0
                and len(records) == payload.get("total")
                and all(r.get("converged") for r in records)
            )
            if ok and tracer is None:
                for r in records:
                    self.engine[0] += r["elapsed_seconds"]
                    self.engine[1] += r["steps"]
                    self.engine[2] += r["effective_steps"]
            self.check(ok, f"cold {spec.protocol} pass {index}: "
                           f"state={payload.get('state')} cached={payload.get('cached')}")
        return ops


class ServiceWarm(_ServiceWorkload):
    """The same submissions again, against the store a cold pass filled."""

    name = "service-warm"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.store = None
        self.cold_bytes: dict[str, str] = {}
        self.base_seed = derive(seed, self.name)
        self.misses0 = 0
        self.executions0 = 0

    def store_for_round(self):
        return self.store

    @staticmethod
    def canonical(payload: dict) -> str:
        return json.dumps(payload.get("result"), sort_keys=True,
                          separators=(",", ":"))

    def prepare(self) -> None:
        from repro.analysis import runner
        from repro.service.store import ResultStore

        self.store = ResultStore(self.work_dir / "warm-store")
        self.new_round()
        for spec in self.specs(self.base_seed):
            payload = self.job(spec, [])
            if not (self.job_ok(payload) and payload.get("cached") == 0):
                raise RuntimeError(f"cold fill of {spec.protocol} failed: "
                                   f"{payload.get('state')}")
            self.cold_bytes[spec.protocol] = self.canonical(payload)
        self.misses0 = self.store.misses
        self.executions0 = runner.EXECUTION_COUNTER.count

    def run_pass(self, index, tracer=None):
        ops = []
        for spec in self.specs(self.base_seed):
            payload = self.job(spec, ops, tracer)
            ok = (
                self.job_ok(payload)
                and payload.get("cached") == payload.get("total")
                and self.canonical(payload) == self.cold_bytes[spec.protocol]
            )
            self.check(ok, f"warm {spec.protocol} pass {index}: "
                           f"state={payload.get('state')} cached={payload.get('cached')}")
        return ops

    def finish(self) -> dict:
        from repro.analysis import runner

        misses = self.store.misses - self.misses0
        executions = runner.EXECUTION_COUNTER.count - self.executions0
        if misses or executions:
            self.failed += 1
            self.problems.append(
                f"warm passes missed the store {misses} times and ran "
                f"{executions} trials")
        return {"warm_store_misses": misses, "warm_engine_runs": executions}


WORKLOADS = {
    cls.name: cls for cls in (LineIndexed, CensusCount, ServiceCold, ServiceWarm)
}
