"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload line-indexed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload census-count --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` replays the same passes with tracing installed and prints
every per-layer metric.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(provenance, law check, spans) goes to ``--out``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
CLOCK = time.perf_counter


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def probe_setup(workload, work_dir: Path) -> dict:
    """Median of :data:`SETUP_PROBES` fresh-interpreter set-ups, each
    stated at the reference host speed by the host probes around it."""
    from workloads import REFERENCE_PROBE_S, host_probe

    command = [sys.executable, str(HERE / "setup_probe.py"), str(work_dir),
               *workload.setup_modules]
    if workload.starts_service:
        command.append("--service")
    runs = []
    before = host_probe()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=False)
        after = host_probe()
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        run = json.loads(done.stdout.strip().splitlines()[-1])
        run["host_probe_s"] = (before + after) / 2
        runs.append(run)
        before = after
    out: dict = {"runs": runs}
    for key in ("import_s", "registry_s", "service_start_s", "total_s"):
        out[key] = statistics.median(
            r[key] * REFERENCE_PROBE_S / r["host_probe_s"] for r in runs)
        out["measured_" + key] = statistics.median(r[key] for r in runs)
    return out


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_phase(workload, seconds=None, indices=None, tracer=None) -> list:
    """Run passes until ``seconds`` would be exceeded (a pass is only
    started when the typical pass still fits), or exactly ``indices``.
    Returns ``[(index, [(op seconds, host probe), ...]), ...]``."""
    passes = []
    walls = []
    start = CLOCK()
    for index in (itertools.count() if indices is None else indices):
        if indices is None and walls:
            if CLOCK() - start + statistics.median(walls) > seconds:
                break
        workload.before_pass(index)
        t0 = CLOCK()
        passes.append((index, workload.run_pass(index, tracer)))
        walls.append(CLOCK() - t0)
    return passes


def pass_times(passes: list, at_reference: bool = True) -> list[list[float]]:
    """Per pass, its operations' seconds: at the reference host speed,
    or as measured."""
    from workloads import REFERENCE_PROBE_S

    return [
        [s * REFERENCE_PROBE_S / probe if at_reference else s for s, probe in ops]
        for _, ops in passes
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing(workload, times: list[list[float]]) -> tuple[dict, dict]:
    """wall_s (the timed phase per pass, a pass being the sum of its
    operations), op_p50_ms and op_tail_ms, plus the tail's percentile
    and sample counts."""
    import stats

    ops = [s for pass_ops in times for s in pass_ops]
    tail, beyond = stats.tail(ops, workload.tail_pct)
    return {
        "wall_s": statistics.fmean(sum(pass_ops) for pass_ops in times),
        "op_p50_ms": statistics.median(ops) * 1000,
        "op_tail_ms": tail * 1000,
    }, {"ops": len(ops), "op_tail_percentile": workload.tail_pct,
        "op_tail_beyond": beyond}


def end_to_end(workload, setup: dict, passes: list) -> tuple[dict, dict]:
    """The end-to-end metrics, plus details printed beside them."""
    metrics, details = timing(workload, pass_times(passes))
    measured, _ = timing(workload, pass_times(passes, at_reference=False))
    metrics["setup_s"] = setup["total_s"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    probes = [probe for _, ops in passes for _, probe in ops]
    details.update(
        passes=len(passes),
        measured=dict(measured, setup_s=setup["measured_total_s"]),
        host_probe_ms=statistics.median(probes) * 1000,
        **workload.engine_rates(),
        op_seconds_and_probe=[op for _, ops in passes for op in ops],
    )
    return metrics, details


# ----------------------------------------------------------------------
# Per-layer metrics from a traced replay
# ----------------------------------------------------------------------
def per_layer(workload, tracer, setup: dict, untraced: list, traced: list) -> dict:
    count = lambda name: tracer.span_total(name)[0]  # noqa: E731
    busy = lambda name: tracer.span_total(name)[1]  # noqa: E731
    calls = lambda name: tracer.counters.get(name, [0, 0.0])[0]  # noqa: E731
    agg_s = lambda name: tracer.counters.get(name, [0, 0.0])[1]  # noqa: E731
    value = lambda name: tracer.values.get(name, 0)  # noqa: E731

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_ms(name):
        n, total, _ = tracer.span_total(name)
        return ratio(total, n) * 1000

    run_s = busy("simulator.run")
    steps, effective = value("simulator.steps"), value("simulator.effective")
    index_s = sum(agg_s(f"indexing.{part}")
                  for part in ("refresh", "edge", "node", "sample"))
    trial_n, trial_s, _ = tracer.span_total("runner.run_trial")
    untraced_wall = sum(map(sum, pass_times(untraced)))
    traced_wall = sum(map(sum, pass_times(traced)))
    rates = workload.engine_rates()
    m = {
        "setup.import_s": setup["import_s"],
        "setup.registry_s": setup["registry_s"],
        "setup.service_start_s": setup["service_start_s"],
        "registry.instantiate_calls": count("registry.instantiate"),
        "registry.instantiate_s": busy("registry.instantiate"),
        "protocol.compile_calls": count("protocol.compile"),
        "protocol.compile_s": busy("protocol.compile"),
        "protocol.initial_configuration_s": busy("protocol.initial_configuration"),
        "simulator.run_calls": count("simulator.run"),
        "simulator.run_s": run_s,
        "simulator.self_s": tracer.span_total("simulator.run")[2],
        "simulator.steps": steps,
        "simulator.effective": effective,
        "simulator.effective_per_step": ratio(effective, steps),
        "simulator.us_per_effective": rates.get("us_per_effective", 0.0),
        "simulator.steps_per_s": rates.get("steps_per_s", 0.0),
        "indexing.share_of_run_pct": ratio(index_s, run_s) * 100,
        "certificate.calls": calls("certificate"),
        "certificate.s": agg_s("certificate"),
        "certificate.calls_per_effective": ratio(calls("certificate"), effective),
        "runner.trials": trial_n,
        "runner.overhead_s": max(0.0, trial_s - run_s) if trial_n else 0.0,
        "keys.code_digest_calls": count("keys.code_digest"),
        "keys.code_digest_s": busy("keys.code_digest"),
        "keys.trial_key_calls": calls("keys.trial_key"),
        "keys.trial_key_s": agg_s("keys.trial_key"),
        "store.get_calls": calls("store.get"),
        "store.get_s": agg_s("store.get"),
        "store.hits": value("store.hits"),
        "store.misses": value("store.misses"),
        "store.put_calls": calls("store.put"),
        "store.put_s": agg_s("store.put"),
        "store.bytes": value("store.bytes"),
        "jobs.queue_wait_ms": ratio(value("jobs.queue_wait_s"), value("jobs.queued")) * 1000,
        "jobs.batches": count("jobs.batch"),
        "api.requests": sum(count(f"api.{r}") for r in ("submit", "stream", "result")),
        "api.submit_ms": mean_ms("api.submit"),
        "api.stream_ms": mean_ms("api.stream"),
        "api.result_ms": mean_ms("api.result"),
        "serialization.result_bytes": ratio(value("serialization.result_bytes"),
                                            count("api.result")),
        "serialization.decode_s": agg_s("serialization.decode"),
        "serialization.encode_s": agg_s("serialization.encode"),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_pct": ratio(traced_wall - untraced_wall, untraced_wall) * 100,
    }
    for part in ("refresh", "edge", "node", "sample"):
        m[f"indexing.{part}_calls"] = calls(f"indexing.{part}")
        m[f"indexing.{part}_s"] = agg_s(f"indexing.{part}")
    leaps = getattr(workload, "leaps", [0, 0])
    m["counting.leaps"] = leaps[0]
    m["counting.firings_per_leap"] = ratio(leaps[1], leaps[0])
    m["counting.leap_run_s"] = getattr(workload, "leap_run_s", 0.0)
    m["counting.exact_runs"] = getattr(workload, "exact_runs", 0)
    return m


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` files (no git process); None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(root: Path, args) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
def declared(benchmark: dict, trace: int) -> list[dict]:
    return benchmark["per_layer" if trace else "end_to_end"]


def run(args, root: Path, benchmark: dict) -> int:
    # One CPU for every thread and set-up interpreter of the run, so the
    # host probe measures the core all of them use.  Set before any
    # thread starts: threads and children inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    work_dir = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = Path(args.out) if os.path.isabs(args.out) else root / args.out
    work_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = None
    try:
        setup = probe_setup(workload, work_dir)
        workload.prepare()
        if not args.trace:
            passes = run_phase(workload, seconds=args.seconds)
            metrics, details = end_to_end(workload, setup, passes)
        else:
            untraced = run_phase(workload, seconds=args.seconds / 3)
            workload.begin_phase()
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = run_phase(workload, indices=[p[0] for p in untraced],
                                   tracer=tracer)
            details = {"passes": len(untraced)}
            metrics = per_layer(workload, tracer, setup, untraced, traced)
        details.update(workload.finish())
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        for n in workloads.CensusCount.sizes:
            row = details.get("law", {}).get(str(n))
            metrics[f"counting.law_dev_pct.n{n}"] = row["dev_pct"] if row else 0.0
    wanted = declared(benchmark, args.trace)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not computed: {missing}")
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    record = dict(result, details=details, setup=setup, problems=workload.problems,
                  provenance=provenance(root, args))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    if tracer is not None:
        tracer.write(str(out_dir / f"{stem}-spans.jsonl"))

    for problem in workload.problems:
        print(f"perfbench: failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'op_tail':<36} p{details['op_tail_percentile']:g} of "
              f"{details['ops']} ops, {details['op_tail_beyond']} beyond")
        measured = ", ".join(f"{k} {v:.6g}" for k, v in sorted(details["measured"].items()))
        print(f"  times above are at the reference host speed; host probe "
              f"{details['host_probe_ms']:.3f} ms (reference "
              f"{workloads.REFERENCE_PROBE_S * 1000:g} ms); as measured: {measured}")
        for name, unit in (("us_per_effective", "us"), ("steps_per_s", "1/s")):
            if name in details:
                print(f"  {name:<36} {details[name]:>14.6g} {unit} (as measured)")
    print(f"  {'failed_frac':<36} {workload.failed}/{workload.attempted} = "
          f"{workload.failed / max(1, workload.attempted):.4g}")
    for n, row in details.get("law", {}).items():
        print(f"  law n={n}: mean steps {row['mean_steps']:.6g} vs "
              f"(n-1)H(n-1) {row['expected_steps']:.6g}: {row['dev_pct']:+.2f}% "
              f"z={row['z']:+.2f} over {row['trials']} trials -> "
              f"{'pass' if row['pass'] else 'FAIL'} "
              f"[{'/'.join(details['regimes'][n])}]")
    print(f"  provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"  result file {out_dir / (stem + '.json')}")
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench/results",
                        help="directory for result files (default %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of result files")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        benchmark = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"run from the repository root (BENCHMARK.json: {exc})")
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(*args.compare, benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        fail("no src/repro here: run from the root of a repository checkout")
    return run(args, root, benchmark)


if __name__ == "__main__":
    sys.exit(main())
