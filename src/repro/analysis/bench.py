"""Perf smoke harness: wall-clock benchmarks of engines and executors.

Two benchmark entry points:

* :func:`bench_engines` — times every engine in
  :data:`repro.core.simulator.ENGINES` on two fixed workloads (the
  Figure 2 Simple-Global-Line sweep and the Figure 1 Global-Star run)
  and emits ``BENCH_engines.json``.  Used by ``benchmarks/perf_smoke.py``
  (which asserts the indexed engine's speedup over the sequential
  engine) and ``repro-net bench``.
* :func:`bench_runner` — runs one Figure-2-style
  :class:`~repro.analysis.runner.ExperimentSpec` through the serial and
  multiprocessing executors, verifies the per-trial records are
  identical, and emits ``BENCH_runner.json`` with the parallel speedup
  and the host's core count.  Used by ``benchmarks/perf_runner.py`` and
  ``repro-net bench --runner``.
* :func:`bench_frontier` — the count engine's n-scaling frontier on the
  Figure 2 line (n = 10^2 .. 10^6) against the indexed engine's
  practical range, merged into ``BENCH_engines.json`` under the
  ``frontier_count_scaling`` key.  Used by
  ``benchmarks/perf_frontier.py``.

Both are driven by the declarative runner layer, so every timing is a
plain :class:`~repro.analysis.runner.TrialRecord` aggregate.

The sequential engine walks every scheduler step, so it runs with a
finite step budget, and on the line sweep only at the sizes in
:data:`SEQUENTIAL_LINE_SIZES`; the event-driven engines run the full
line sweep to convergence.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from dataclasses import asdict, dataclass

from repro.analysis.runner import ExperimentSpec, Runner
from repro.core.simulator import ENGINES

#: Figure 2 line-protocol sweep sizes.  The seed repo's largest Figure 2
#: population was n=30; the indexed engine extends the sweep upward
#: (n=480 converges in about a second).
LINE_SIZES: tuple[int, ...] = (30, 60, 120, 240, 480)

#: Line sizes the sequential engine also runs (about 0.8 s per trial at
#: n=60, and the step count grows like n^4).  The headline speedup is
#: taken at the largest of them that the sweep includes.
SEQUENTIAL_LINE_SIZES: tuple[int, ...] = (30, 60)

#: Global-Star size for the all-engine comparison (matches the
#: engine-ablation benchmark).
STAR_N = 40

#: Step budget for every sequential-engine cell.
SEQUENTIAL_BUDGET = 10_000_000

#: Default Figure-2-style sweep for the executor benchmark: enough
#: trials that the pool has work to fan out, sizes small enough that the
#: serial pass stays in seconds.
RUNNER_SIZES: tuple[int, ...] = (30, 60, 120, 240)
RUNNER_TRIALS = 8


@dataclass(frozen=True)
class BenchCell:
    """One (workload, engine, n) timing measurement."""

    workload: str
    protocol: str
    engine: str
    n: int
    trials: int
    mean_seconds: float
    mean_steps: float
    mean_effective: float
    converged: bool


def _time_engine(
    workload: str,
    protocol_spec: str,
    engine: str,
    n: int,
    trials: int,
    *,
    base_seed: int = 0,
    max_steps: int | None = None,
) -> BenchCell:
    """Time one (workload, engine, n) cell via a serial Runner sweep.

    The legacy seed policy keeps seeds identical across engines (and
    across benchmark history), so wall-clock ratios compare like with
    like.
    """
    spec = ExperimentSpec(
        protocol=protocol_spec,
        sizes=(n,),
        trials=trials,
        engine=engine,
        seed_policy="legacy",
        base_seed=base_seed,
        max_steps=max_steps,
        label=workload,
    )
    result = Runner().run(spec)
    from repro.protocols import registry

    return BenchCell(
        workload=workload,
        protocol=registry.instantiate(protocol_spec).name,
        engine=engine,
        n=n,
        trials=trials,
        mean_seconds=statistics.fmean(
            r.elapsed_seconds for r in result.records
        ),
        mean_steps=statistics.fmean(r.steps for r in result.records),
        mean_effective=statistics.fmean(
            r.effective_steps for r in result.records
        ),
        converged=all(r.converged for r in result.records),
    )


def bench_engines(
    *,
    line_sizes: tuple[int, ...] = LINE_SIZES,
    star_n: int = STAR_N,
    trials: int = 2,
    base_seed: int = 0,
    out: str | None = None,
) -> dict:
    """Run the full engine benchmark and return (optionally write) the
    record.

    The headline number is ``speedup_indexed_vs_sequential`` — the
    wall-clock ratio on the Figure 2 line workload at the largest size
    both engines ran (absent when the sweep shares no size with
    :data:`SEQUENTIAL_LINE_SIZES`).

    Writing to an existing ``out`` replaces only the keys this function
    writes; other top-level keys, such as the ``frontier_count_scaling``
    block :func:`bench_frontier` merges in, are kept.
    """
    cells: list[BenchCell] = []

    def budget(engine: str) -> int | None:
        return SEQUENTIAL_BUDGET if engine == "sequential" else None

    # Engines are enumerated from the registry so a newly added engine is
    # benchmarked by construction.
    for n in line_sizes:
        for engine in ENGINES:
            if engine == "sequential" and n not in SEQUENTIAL_LINE_SIZES:
                continue
            cells.append(
                _time_engine(
                    "figure2-line", "simple-global-line", engine, n, trials,
                    base_seed=base_seed, max_steps=budget(engine),
                )
            )
    for engine in ENGINES:
        cells.append(
            _time_engine(
                "figure1-star", "global-star", engine, star_n, trials,
                base_seed=base_seed, max_steps=budget(engine),
            )
        )

    record = {
        "schema": "repro-bench/1",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "trials": trials,
        "line_sizes": list(line_sizes),
        "star_n": star_n,
        "cells": [asdict(cell) for cell in cells],
    }
    shared = [
        cell.n for cell in cells
        if cell.workload == "figure2-line" and cell.engine == "sequential"
    ]
    if shared:
        by_engine = {
            cell.engine: cell
            for cell in cells
            if cell.workload == "figure2-line" and cell.n == max(shared)
        }
        record["speedup_indexed_vs_sequential"] = {
            "workload": "figure2-line",
            "n": max(shared),
            "speedup": by_engine["sequential"].mean_seconds
            / by_engine["indexed"].mean_seconds,
        }
    if out is not None:
        kept: dict = {}
        if os.path.exists(out):
            with open(out, "r", encoding="utf-8") as handle:
                owned = {*record, "speedup_indexed_vs_sequential"}
                kept = {
                    key: value for key, value in json.load(handle).items()
                    if key not in owned
                }
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({**record, **kept}, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return record


def format_bench(record: dict) -> str:
    """Human-readable table of a :func:`bench_engines` record."""
    lines = [
        f"{'workload':<14} {'engine':<11} {'n':>5} {'mean s':>9} "
        f"{'steps':>14} {'effective':>11}"
    ]
    for cell in record["cells"]:
        lines.append(
            f"{cell['workload']:<14} {cell['engine']:<11} {cell['n']:>5} "
            f"{cell['mean_seconds']:>9.3f} {cell['mean_steps']:>14.0f} "
            f"{cell['mean_effective']:>11.0f}"
        )
    headline = record.get("speedup_indexed_vs_sequential")
    if headline is not None:
        lines.append(
            f"\nindexed vs sequential @ {headline['workload']} "
            f"n={headline['n']}: {headline['speedup']:.1f}x"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# n-scaling frontier (count engine vs indexed engine)
# ----------------------------------------------------------------------

#: Figure-2 line sizes for the count engine's scaling frontier.  The
#: count engine is O(states) in memory and tau-leaps above its
#: threshold, so the sweep extends four decades past the indexed
#: engine's practical range.
FRONTIER_COUNT_SIZES: tuple[int, ...] = (100, 1_000, 10_000, 100_000, 1_000_000)

#: Indexed-engine sizes for the same workload.  n=10^4 is roughly half
#: an hour of wall clock (the per-step loop walks ~10^10 scheduler
#: steps); the full-frontier run pays it once to anchor the speedup.
FRONTIER_INDEXED_SIZES: tuple[int, ...] = (100, 1_000, 10_000)


def bench_frontier(
    *,
    count_sizes: tuple[int, ...] = FRONTIER_COUNT_SIZES,
    indexed_sizes: tuple[int, ...] = FRONTIER_INDEXED_SIZES,
    trials: int = 1,
    base_seed: int = 7,
    merge_into: str | None = None,
) -> dict:
    """Time the count and indexed engines over the Figure-2 line at
    n-scaling sizes and return the frontier record.

    The headline is ``speedup_count_vs_indexed`` at the largest size
    both engines ran.  Note the comparison is only meaningful above the
    count engine's leap threshold — below it the count engine *is* the
    indexed engine, so the ratio sits near 1 by construction.

    ``merge_into`` names a JSON file (``BENCH_engines.json``) to merge
    the record into under the ``frontier_count_scaling`` key, preserving
    every other key — :func:`bench_engines` owns the rest of that file.
    """
    cells: list[BenchCell] = []
    for n in count_sizes:
        cells.append(
            _time_engine(
                "frontier-line", "simple-global-line", "count", n, trials,
                base_seed=base_seed,
            )
        )
    for n in indexed_sizes:
        cells.append(
            _time_engine(
                "frontier-line", "simple-global-line", "indexed", n, trials,
                base_seed=base_seed,
            )
        )
    common = max(set(count_sizes) & set(indexed_sizes))
    by_engine = {
        (cell.engine, cell.n): cell for cell in cells
    }
    speedup = (
        by_engine[("indexed", common)].mean_seconds
        / max(by_engine[("count", common)].mean_seconds, 1e-9)
    )
    record = {
        "schema": "repro-bench-frontier/1",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "trials": trials,
        "count_sizes": list(count_sizes),
        "indexed_sizes": list(indexed_sizes),
        "cells": [asdict(cell) for cell in cells],
        "speedup_count_vs_indexed": {
            "workload": "frontier-line",
            "n": common,
            "speedup": speedup,
        },
    }
    if merge_into is not None:
        merged: dict = {}
        if os.path.exists(merge_into):
            with open(merge_into, "r", encoding="utf-8") as handle:
                merged = json.load(handle)
        merged["frontier_count_scaling"] = record
        with open(merge_into, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return record


def format_bench_frontier(record: dict) -> str:
    """Human-readable table of a :func:`bench_frontier` record."""
    lines = [
        f"{'engine':<8} {'n':>9} {'mean s':>10} {'steps':>18} "
        f"{'effective':>12} {'ok':>3}"
    ]
    for cell in record["cells"]:
        lines.append(
            f"{cell['engine']:<8} {cell['n']:>9} "
            f"{cell['mean_seconds']:>10.2f} {cell['mean_steps']:>18.3e} "
            f"{cell['mean_effective']:>12.3e} "
            f"{'yes' if cell['converged'] else 'NO':>3}"
        )
    headline = record["speedup_count_vs_indexed"]
    lines.append(
        f"\ncount vs indexed @ n={headline['n']}: "
        f"{headline['speedup']:.1f}x"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Executor benchmark (serial vs multiprocessing Runner)
# ----------------------------------------------------------------------

def bench_runner(
    *,
    protocol: str = "simple-global-line",
    sizes: tuple[int, ...] = RUNNER_SIZES,
    trials: int = RUNNER_TRIALS,
    jobs: int | None = None,
    base_seed: int = 0,
    out: str | None = None,
    scenario=None,
    max_steps: int | None = None,
) -> dict:
    """Time one sweep spec under the serial and process executors.

    Verifies the executor-equivalence contract (identical per-trial
    records up to wall-clock timing) and records the parallel speedup
    together with the host's core count — the speedup is only meaningful
    relative to ``cpu_count``.

    ``scenario`` (a :class:`repro.core.scenario.Scenario`) selects the
    environment; it is recorded in the benchmark payload so robustness
    benchmarks stay distinguishable from uniform-scheduler runs.
    """
    from repro.core.scenario import DEFAULT_SCENARIO

    scenario = scenario or DEFAULT_SCENARIO
    spec = ExperimentSpec(
        protocol=protocol,
        sizes=sizes,
        trials=trials,
        base_seed=base_seed,
        max_steps=max_steps,
        label="figure2-line-sweep",
        scenario=scenario,
    )
    cpu_count = os.cpu_count() or 1
    if jobs is None:
        jobs = max(2, min(8, cpu_count))

    start = time.perf_counter()
    serial = Runner(jobs=1).run(spec)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = Runner(jobs=jobs).run(spec)
    parallel_seconds = time.perf_counter() - start

    identical = [r.deterministic() for r in serial.records] == [
        r.deterministic() for r in parallel.records
    ]
    record = {
        "schema": "repro-bench-runner/1",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": cpu_count,
        "jobs": jobs,
        # The scenario rides inside the spec payload (spec["scenario"]),
        # so robustness benchmarks stay distinguishable from
        # uniform-scheduler runs without a second copy to drift.
        "spec": spec.to_dict(),
        "trial_count": len(serial.records),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "records_identical": identical,
        "mean_value_by_n": {
            str(n): summary.mean
            for n, summary in serial.summaries().items()
        },
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return record


# ----------------------------------------------------------------------
# Robustness benchmark (fault-load grid: plain vs fault-tolerant vs
# redundancy-coded line, across fault families)
# ----------------------------------------------------------------------

#: Default robustness contestants: the Protocol 1 line, its FTNC-2019
#: fault-tolerant variant, and the redundancy-coded adversarial variant.
ROBUSTNESS_PROTOCOLS: tuple[str, ...] = (
    "simple-global-line", "ft-global-line", "rc-global-line",
)
#: Default fault-family grid: family -> swept loads.  Load units follow
#: :data:`repro.analysis.robustness.FAULT_FAMILIES` — crash/byzantine
#: loads are node counts, the sustained families are per-step (or, for
#: ``edge-rate``, per-edge per-step) rates.  The rate loads are tuned
#: to the bench population (n = 64): high enough to strike during
#: construction, spanning the band where the dissolve-repair line
#: degrades but crown repair still holds.
ROBUSTNESS_FAMILIES: dict[str, tuple[float, ...]] = {
    "crash": (0, 1, 2, 4),
    "edge-drop": (0, 0.00001, 0.0001, 0.0003),
    "edge-rate": (0, 0.0000001, 0.000001, 0.000003),
    "churn": (0, 0.000001, 0.000003, 0.00001),
    "byzantine": (0, 1, 2, 4),
}
ROBUSTNESS_N = 64
ROBUSTNESS_BUDGET = 20_000_000


def bench_robustness(
    *,
    protocols: tuple[str, ...] = ROBUSTNESS_PROTOCOLS,
    families: dict[str, tuple[float, ...]] | None = None,
    n: int = ROBUSTNESS_N,
    trials: int = 4,
    jobs: int = 1,
    base_seed: int = 0,
    out: str | None = None,
) -> dict:
    """Run the paired-seed robustness grid across fault families and
    return (optionally write) the record — survival and
    re-stabilization curves per protocol per family, plus every
    pairwise :meth:`~repro.analysis.robustness.RobustnessResult.dominates`
    verdict.

    The headline is the dominance matrix: the redundancy-coded
    constructor should dominate both line baselines under the
    adversarial families (byzantine corruption, sustained edge loss),
    and the fault-tolerant constructor should dominate the plain one
    under crash load.
    """
    from repro.analysis.robustness import RobustnessSpec, run_robustness

    if families is None:
        families = dict(ROBUSTNESS_FAMILIES)
    record: dict = {
        "schema": "repro-bench-robustness/2",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "jobs": jobs,
        "n": n,
        "trials": trials,
        "protocols": list(protocols),
        "families": {},
        "elapsed_seconds": 0.0,
    }
    total_start = time.perf_counter()
    for family, loads in families.items():
        spec = RobustnessSpec(
            protocols=protocols,
            loads=loads,
            n=n,
            trials=trials,
            faults=family,
            base_seed=base_seed,
            max_steps=ROBUSTNESS_BUDGET,
            label=f"robustness-{family}-sweep",
        )
        start = time.perf_counter()
        result = run_robustness(spec, jobs=jobs)
        elapsed = time.perf_counter() - start
        record["families"][family] = {
            "spec": spec.to_dict(),
            "trial_count": len(result.records),
            "elapsed_seconds": elapsed,
            "survival": {
                p: {
                    str(load): rate
                    for load, rate in result.survival_curve(p).items()
                }
                for p in spec.protocols
            },
            "restabilization": {
                p: {
                    str(load): value
                    for load, value in result.restabilization_curve(p).items()
                }
                for p in spec.protocols
            },
            "dominates": {
                challenger: {
                    baseline: result.dominates(challenger, baseline)
                    for baseline in spec.protocols
                    if baseline != challenger
                }
                for challenger in spec.protocols
            },
        }
    record["elapsed_seconds"] = time.perf_counter() - total_start
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return record


def format_bench_robustness(record: dict) -> str:
    """Human-readable tables of a :func:`bench_robustness` record."""
    lines: list[str] = []
    for family, fam in record["families"].items():
        spec = fam["spec"]
        loads = [str(load) for load in spec["loads"]]
        width = max(len(p) for p in spec["protocols"]) + 2
        lines.append(
            f"robustness     : {family} loads={','.join(loads)} "
            f"n={spec['n']} trials={spec['trials']}"
        )
        lines.append(
            f"{'survival':<{width}} " + " ".join(f"{x:>9}" for x in loads)
        )
        for p in spec["protocols"]:
            curve = fam["survival"][p]
            lines.append(
                f"{p:<{width}} "
                + " ".join(f"{curve[x]:>9.2f}" for x in loads)
            )
        for challenger, verdicts in fam["dominates"].items():
            beaten = sorted(b for b, wins in verdicts.items() if wins)
            if beaten:
                lines.append(
                    f"  {challenger} dominates {', '.join(beaten)}"
                )
        lines.append("")
    lines.append(f"total: {record['elapsed_seconds']:.1f} s")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Service benchmark (cold vs warm result store, worker scaling)
# ----------------------------------------------------------------------

#: Default sweep for the service benchmark: the Figure 2 line protocol
#: at sizes where a cold pass takes a few seconds, so the warm-cache
#: ratio is measured against real engine time, not setup noise.
SERVICE_SIZES: tuple[int, ...] = (30, 60, 120)
SERVICE_TRIALS = 8
#: Worker counts for the scaling sweep.  On a 1-core host the >1 rows
#: measure pool overhead, not speedup; ``cpu_count`` in the record says
#: which reading applies.
SERVICE_WORKER_COUNTS: tuple[int, ...] = (1, 2, 4)


def bench_service(
    *,
    protocol: str = "simple-global-line",
    sizes: tuple[int, ...] = SERVICE_SIZES,
    trials: int = SERVICE_TRIALS,
    worker_counts: tuple[int, ...] = SERVICE_WORKER_COUNTS,
    base_seed: int = 0,
    out: str | None = None,
) -> dict:
    """Benchmark the experiment service: cold vs warm store, worker
    scaling.

    Submits the same sweep spec twice against a fresh
    :class:`~repro.service.store.ResultStore`.  The headline is
    ``warm_speedup``: the second submission must be served entirely from
    the store (100% hit rate, byte-identical result), so its wall-clock
    is pure store-read time.  The worker-scaling sweep then times a cold
    run of the same spec at each pool width — meaningful relative to
    ``cpu_count``, which the record carries.
    """
    import asyncio
    import tempfile

    from repro.service.jobs import JobService
    from repro.service.store import ResultStore

    spec = ExperimentSpec(
        protocol=protocol,
        sizes=sizes,
        trials=trials,
        base_seed=base_seed,
        label="service-bench",
    )

    async def _run(service: JobService):
        job = await service.submit(spec)
        await service.wait(job.id)
        if job.state != "done":
            raise RuntimeError(
                f"service benchmark job ended {job.state}: {job.error}"
            )
        return job

    with tempfile.TemporaryDirectory() as tmp:
        service = JobService(store=ResultStore(tmp), workers=1)

        async def _cold_warm():
            start = time.perf_counter()
            cold_job = await _run(service)
            cold = time.perf_counter() - start
            cold_json = cold_job.result().to_json()
            start = time.perf_counter()
            warm_job = await _run(service)
            warm = time.perf_counter() - start
            identical = cold_json == warm_job.result().to_json()
            return cold, warm, warm_job, identical

        cold_seconds, warm_seconds, warm_job, identical = asyncio.run(
            _cold_warm()
        )

    scaling = []
    for workers in worker_counts:
        with tempfile.TemporaryDirectory() as tmp:
            service = JobService(store=ResultStore(tmp), workers=workers)
            start = time.perf_counter()
            asyncio.run(_run(service))
            seconds = time.perf_counter() - start
        scaling.append({"workers": workers, "cold_seconds": seconds})
    base = scaling[0]["cold_seconds"]
    for row in scaling:
        row["speedup_vs_1"] = base / row["cold_seconds"]

    record = {
        "schema": "repro-bench-service/1",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "spec": spec.to_dict(),
        "trial_count": warm_job.total,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "warm_cache_hits": warm_job.cached,
        "warm_hit_rate": warm_job.cached / warm_job.total,
        "results_identical": identical,
        "worker_scaling": scaling,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return record


def format_bench_service(record: dict) -> str:
    """Human-readable summary of a :func:`bench_service` record."""
    spec = record["spec"]
    lines = [
        f"sweep          : {spec['protocol']} "
        f"sizes={spec['sizes']} trials={spec['trials']}",
        f"trials total   : {record['trial_count']}",
        f"cold           : {record['cold_seconds']:.2f} s",
        f"warm           : {record['warm_seconds']:.3f} s "
        f"({record['warm_hit_rate']:.0%} cached)",
        f"warm speedup   : {record['warm_speedup']:.1f}x",
        f"results equal  : {record['results_identical']}",
        f"worker scaling : (host has {record['cpu_count']} cores)",
    ]
    for row in record["worker_scaling"]:
        lines.append(
            f"  workers={row['workers']:<3} {row['cold_seconds']:>7.2f} s "
            f"({row['speedup_vs_1']:.2f}x vs 1)"
        )
    return "\n".join(lines)


def format_bench_runner(record: dict) -> str:
    """Human-readable summary of a :func:`bench_runner` record."""
    spec = record["spec"]
    scenario = spec.get("scenario") or {}
    scenario_line = scenario.get("scheduler", "uniform")
    if scenario.get("faults"):
        scenario_line += f" faults={';'.join(scenario['faults'])}"
    if scenario.get("init"):
        scenario_line += f" init={scenario['init']}"
    return "\n".join(
        [
            f"sweep          : {spec['protocol']} "
            f"sizes={spec['sizes']} trials={spec['trials']}",
            f"scenario       : {scenario_line}",
            f"trials total   : {record['trial_count']}",
            f"serial         : {record['serial_seconds']:.2f} s",
            f"process x{record['jobs']:<4}  : "
            f"{record['parallel_seconds']:.2f} s",
            f"speedup        : {record['speedup']:.2f}x "
            f"(host has {record['cpu_count']} cores)",
            f"records equal  : {record['records_identical']}",
        ]
    )
