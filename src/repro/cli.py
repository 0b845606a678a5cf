"""Command-line interface: run constructors and inspect their outputs.

Examples
--------
Run a protocol and summarize the stabilized network::

    repro-net run global-star -n 30 --seed 7
    repro-net run 4-cliques -n 20

Sweep sizes in parallel and persist the per-trial records::

    repro-net sweep cycle-cover --sizes 20,40,80 --trials 10 --jobs 4 \\
        --out sweep.json

Cache trial records in a content-addressed store — a repeated sweep
against a warm store performs zero engine steps and returns
byte-identical results (see ``docs/experiments.md``)::

    repro-net sweep cycle-cover --trials 10 --cache
    repro-net sweep cycle-cover --trials 10 --cache   # 100% cached
    repro-net run global-star -n 30 --cache .repro-store

Or run the experiment service: an HTTP job queue that dedupes every
submission against the store and shards misses across worker
processes::

    repro-net serve --workers 4 --store .repro-store
    repro-net submit cycle-cover --sizes 20,40 --trials 10 --wait
    repro-net status job-1
    repro-net results job-1 --out sweep.json
    repro-net cancel job-1

Watch a run live — a browser dashboard the service serves per job at
``/jobs/<id>/watch``, fed by the streaming observability bus over
server-sent events (no polling).  ``watch job-N`` prints the page's URL
on a running service (submit with ``--stream`` for per-trial census
frames); ``watch <spec>`` runs that one trial as a job on an in-process
service, with the seed of ``run <spec> --seed S``::

    repro-net submit cycle-cover --trials 10 --stream
    repro-net watch job-1
    repro-net watch simple-global-line -n 200 --port 8650

Run under a non-default scenario — scheduler, fault injection, initial
configuration (see ``docs/experiments.md``)::

    repro-net sweep simple-global-line --scheduler round-robin --jobs 2
    repro-net run simple-global-line -n 20 --faults crash:count=2,at=0
    repro-net run cycle-cover -n 12 --init graph:graph=path-6

Sweep protocols over increasing fault load and compare their survival
and re-stabilization curves (see ``docs/experiments.md``)::

    repro-net robustness simple-global-line ft-global-line \\
        --faults crash --loads 0,1,2,4 -n 64

Run the default robustness grid (three line constructors, every fault
family, n = 64) into ``BENCH_robustness.json``; engine and service
timings live in the repository benchmark, ``python3 perfbench/run.py``::

    repro-net bench --robustness

List everything the registries know (``describe`` accepts protocol,
scheduler, fault-model and initial-configuration specs alike;
``--engines`` prints the engines' per-scenario support matrix — the
anonymity-native ``count`` engine declines identity-addressed scenarios
and the scenario layer falls back to the sequential reference)::

    repro-net list
    repro-net list --schedulers --faults --inits
    repro-net list --engines
    repro-net run simple-global-line -n 100000 --engine count
    repro-net describe k-regular-connected
    repro-net describe line-tm:program=parity
    repro-net describe crash:count=2,at=100

Run the registry-wide conformance suite (state closure, rule-table
totality/symmetry, compiled-table equivalence, three-engine cross-check,
stabilization and under-fault invariants; see ``repro.testing``)::

    repro-net conformance
    repro-net conformance line-tm universal:family=connected
    repro-net conformance --checks engines,stabilization --seeds 5

Statically verify protocols — rule-table lints plus the
symmetry-reduced exhaustive model checker (no engine in the loop; see
``repro.verify`` and the cookbook in ``docs/experiments.md``)::

    repro-net verify
    repro-net verify --protocol simple-global-line --n 5
    repro-net verify --protocol ft-global-line --checks model \\
        --counterexample-dot cex.dot
    repro-net verify --n 4 --cache-dir .verify-cache
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stdout

from repro.analysis import fit_power_law
from repro.analysis.robustness import (
    FAULT_FAMILIES,
    RobustnessSpec,
    bench_robustness,
    format_bench_robustness,
    run_robustness,
)
from repro.analysis.runner import (
    MEASURES,
    SEED_POLICIES,
    ExperimentSpec,
    Runner,
    TrialSpec,
    run_one,
)
from repro.core.errors import ReproError
from repro.core.faults import FAULTS, survivors
from repro.core.params import SpecError, format_spec
from repro.core.scenario import INITS, Scenario, resolve_engine
from repro.core.scheduler import SCHEDULERS
from repro.core.simulator import ENGINES
from repro.protocols import registry
from repro.service.api import DEFAULT_HOST, DEFAULT_PORT, ExperimentService
from repro.service.client import DEFAULT_URL, ServiceClient
from repro.service.store import ResultStore
from repro.viz import component_summary, state_summary

#: Step budget substituted when a scenario routes to the sequential
#: engine (or injects unbounded faults) and the user gave no --max-steps.
DEFAULT_SCENARIO_BUDGET = 10_000_000

#: Every spec registry as (kind, ``list`` flag, ``list`` title,
#: registry): ``list`` takes its flags and sections from it, and
#: ``describe`` tries the registries in this order.
REGISTRIES = (
    ("protocol", None, None, registry.PROTOCOLS),
    ("scheduler", "schedulers", "schedulers", SCHEDULERS),
    ("fault model", "faults", "fault models", FAULTS),
    ("initial configuration", "inits", "initial configurations", INITS),
)


def _comma_list(convert):
    """An argparse ``type=``: comma-separated ``convert`` items, none
    empty (``--sizes 10,,20`` is a usage error, not a traceback)."""

    def parse(text: str) -> tuple:
        items = [item.strip() for item in text.split(",")]
        if not all(items):
            raise argparse.ArgumentTypeError(f"empty item in {text!r}")
        try:
            return tuple(convert(item) for item in items)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {convert.__name__} list: {text!r}"
            ) from None

    return parse


def _shared_flags() -> dict[str, argparse.ArgumentParser]:
    """The parent parsers: each shared flag is declared once, here."""
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--seed", type=int, default=0,
        help="seed of the run (sweeps: the base seed; default: 0)",
    )
    engine.add_argument(
        "--engine", choices=sorted(ENGINES), default="indexed",
        help="simulation engine (default: indexed)",
    )
    engine.add_argument(
        "--max-steps", type=int, default=None,
        help="per-run step budget (required by --engine sequential; "
        "scenario runs and robustness default it to "
        f"{DEFAULT_SCENARIO_BUDGET})",
    )

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument(
        "--scheduler", default="uniform", metavar="SPEC",
        help="scheduler spec ('uniform', 'round-robin', "
        "'laggard:bias=0.9,lagged=0..4'; see 'list --schedulers')",
    )
    scenario.add_argument(
        "--faults", action="append", default=None, metavar="SPEC",
        help="fault model spec, repeatable ('crash:count=2,at=0', "
        "'edge-drop:rate=0.001'; see 'list --faults')",
    )
    scenario.add_argument(
        "--init", default="", metavar="SPEC",
        help="initial-configuration override ('doped:state=l', "
        "'graph:graph=ring-8'; see 'list --inits')",
    )

    sweep = argparse.ArgumentParser(
        add_help=False, parents=[engine, scenario]
    )
    sweep.add_argument("protocol", help="registry spec (see 'run')")
    sweep.add_argument(
        "--sizes", type=_comma_list(int), default="10,20,40",
        help="comma-separated population sizes",
    )
    sweep.add_argument("--trials", type=int, default=10)
    sweep.add_argument(
        "--measure", choices=sorted(MEASURES), default="output",
        help="which time to read off each run (default: output)",
    )
    sweep.add_argument(
        "--seed-policy", choices=sorted(SEED_POLICIES), default="hashed",
        help="per-trial seed derivation (default: hashed; 'legacy' "
        "reproduces seed-era numbers)",
    )

    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--cache", nargs="?", const=".repro-store", default=None,
        metavar="DIR",
        help="consult and fill a content-addressed result store "
        "(bare --cache uses .repro-store); cached trials skip the engine",
    )
    cache.add_argument(
        "--no-cache", action="store_true",
        help="force recomputation: neither read nor write the store",
    )

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs", type=int, default=1,
        help="parallel worker processes (default: 1 = in-process serial)",
    )

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the result as JSON ('-': the JSON alone on stdout, "
        "the report on stderr)",
    )

    url = argparse.ArgumentParser(add_help=False)
    url.add_argument(
        "--url", default=DEFAULT_URL,
        help=f"service endpoint (default: {DEFAULT_URL})",
    )
    return {
        "engine": engine, "scenario": scenario, "sweep": sweep,
        "cache": cache, "jobs": jobs, "out": out, "url": url,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-net",
        description="Network constructors (Michail & Spirakis, PODC 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _shared_flags()

    def command(name, handler, summary, *parents):
        cmd = sub.add_parser(
            name, help=summary, parents=[shared[p] for p in parents]
        )
        cmd.set_defaults(handler=handler)
        return cmd

    run_p = command(
        "run", _cmd_run, "run one protocol to stabilization",
        "engine", "scenario", "cache",
    )
    run_p.add_argument(
        "protocol",
        help="registry spec: a name ('global-star'), a parameterized spec "
        "('c-cliques:c=4') or a shorthand ('3rc', '4-cliques')",
    )
    run_p.add_argument("-n", type=int, default=20, help="population size")

    command(
        "sweep", _cmd_sweep, "measure convergence across sizes",
        "sweep", "jobs", "out", "cache",
    )

    robust_p = command(
        "robustness", _cmd_robustness,
        "sweep protocols over increasing fault load "
        "(survival / re-stabilization curves)",
        "engine", "jobs", "out", "cache",
    )
    robust_p.add_argument(
        "protocols", nargs="+",
        help="registry specs of the competing protocols, e.g. "
        "simple-global-line ft-global-line",
    )
    robust_p.add_argument(
        "--faults", choices=sorted(FAULT_FAMILIES), default="crash",
        help="fault family to sweep (default: crash)",
    )
    robust_p.add_argument(
        "--loads", type=_comma_list(float), default="0,1,2,4",
        help="comma-separated fault loads (crash/byzantine: node counts; "
        "edge-drop/edge-rate/churn: per-step rates; 0 = fault-free "
        "baseline)",
    )
    robust_p.add_argument("-n", type=int, default=32, help="population size")
    robust_p.add_argument("--trials", type=int, default=10)
    robust_p.add_argument(
        "--at", type=int, default=None,
        help="step at which one-shot faults fire (default: n*n)",
    )
    robust_p.add_argument(
        "--scheduler", default="uniform", metavar="SPEC",
        help="scheduler spec for every cell, e.g. targeted:aim=leader "
        "(non-uniform schedulers run on the sequential engine)",
    )
    robust_p.add_argument(
        "--measure", choices=sorted(MEASURES), default="output",
        help="re-stabilization measure (default: output)",
    )

    serve_p = command(
        "serve", _cmd_serve,
        "run the experiment service: HTTP job queue + "
        "content-addressed result store",
    )
    serve_p.add_argument("--host", default=DEFAULT_HOST)
    serve_p.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width trials are sharded across "
        "(default: 1 = in-process serial)",
    )
    serve_p.add_argument(
        "--store", default=".repro-store", metavar="DIR",
        help="result-store directory (default: .repro-store; "
        "'' disables caching)",
    )

    submit_p = command(
        "submit", _cmd_submit,
        "submit a sweep to a running experiment service",
        "sweep", "url", "out",
    )
    submit_p.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its summary "
        "(and write --out)",
    )
    submit_p.add_argument(
        "--stream", action="store_true",
        help="ask the service to publish per-trial census frames on the "
        "job's event stream (for its /watch page; workers=1 services only)",
    )

    status_p = command(
        "status", _cmd_status,
        "show job status on a running experiment service", "url",
    )
    status_p.add_argument(
        "job", nargs="?", default=None,
        help="job id (default: list every job)",
    )

    results_p = command(
        "results", _cmd_results,
        "fetch a job's (possibly partial) result", "url", "out",
    )
    results_p.add_argument("job", help="job id")
    results_p.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes before fetching",
    )

    cancel_p = command(
        "cancel", _cmd_cancel,
        "cancel a job on a running experiment service", "url",
    )
    cancel_p.add_argument("job", help="job id")

    watch_p = command(
        "watch", _cmd_watch,
        "live dashboard: print a service job's /watch URL, or run a "
        "protocol as a one-trial job on an in-process service",
        "engine", "scenario", "url",
    )
    watch_p.add_argument(
        "target",
        help="a job id ('job-1' on the service at --url) or a protocol "
        "registry spec (run as a one-trial job with the seed of 'run')",
    )
    watch_p.add_argument(
        "-n", type=int, default=100,
        help="population size for a spec target (default: 100)",
    )
    watch_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address of a spec target's service "
        "(default: 127.0.0.1)",
    )
    watch_p.add_argument(
        "--port", type=int, default=0,
        help="port of a spec target's service "
        "(default: 0 = pick an ephemeral port)",
    )
    watch_p.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve a spec target for a fixed time then exit "
        "(default: until Ctrl-C)",
    )

    bench_p = command(
        "bench", _cmd_bench,
        "run the robustness grid into BENCH_robustness.json, or --out "
        "(engine and service timings: python3 perfbench/run.py)",
        "jobs", "out",
    )
    bench_p.add_argument(
        "--robustness", action="store_true", required=True,
        help="run the fault-load robustness grid (plain vs "
        "fault-tolerant vs redundancy-coded line)",
    )
    bench_p.add_argument("--trials", type=int, default=4)
    bench_p.add_argument("--seed", type=int, default=0)

    list_p = command(
        "list", _cmd_list, "list registered protocols (or other registries)"
    )
    for kind, flag, _, _ in REGISTRIES:
        if flag is not None:
            list_p.add_argument(
                f"--{flag}", action="store_true",
                help=f"list the {kind} registry instead",
            )
    list_p.add_argument(
        "--engines", action="store_true",
        help="list the simulation engines with their per-scenario "
        "support (probed via each engine's supports())",
    )

    conform_p = command(
        "conformance", _cmd_conformance,
        "run the registry-wide protocol conformance suite",
    )
    conform_p.add_argument(
        "protocols", nargs="*", metavar="spec",
        help="protocol specs to check (default: every registered protocol)",
    )
    conform_p.add_argument(
        "--checks", type=_comma_list(str), default=None, metavar="NAMES",
        help="comma-separated check names (default: all; see --list-checks)",
    )
    conform_p.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="seeds per run-based check (default: 3)",
    )
    conform_p.add_argument(
        "--list-checks", action="store_true",
        help="list the available checks and exit",
    )

    verify_p = command(
        "verify", _cmd_verify,
        "statically verify protocols: rule-table lints + "
        "symmetry-reduced exhaustive model check",
    )
    verify_p.add_argument(
        "--protocol", action="append", default=None, metavar="SPEC",
        dest="protocols",
        help="protocol spec to verify, repeatable (default: every "
        "registered protocol)",
    )
    verify_p.add_argument(
        "--n", type=int, default=None, metavar="N",
        help="model-check population (default: smallest accepted of "
        "4,5,3,2,6; protocols rejecting the explicit size are skipped)",
    )
    verify_p.add_argument(
        "--checks", type=_comma_list(str), default="lints,model",
        metavar="NAMES",
        help="comma-separated subset of {lints,model} (default: both)",
    )
    verify_p.add_argument(
        "--max-configs", type=int, default=None, metavar="N",
        help="cap on canonical configurations explored per protocol "
        "(default: 200000)",
    )
    verify_p.add_argument(
        "--counterexample-dot", default=None, metavar="PATH",
        help="write the first violation's counterexample trace as a "
        "multi-frame DOT file",
    )
    verify_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed cache of passing model-check verdicts "
        "(reused across runs; violations are never cached)",
    )

    describe_p = command(
        "describe", _cmd_describe,
        "show one registry entry in full (protocol, scheduler, "
        "fault model or initial configuration)",
    )
    describe_p.add_argument(
        "spec",
        help="registry spec: a protocol ('global-star', '3rc'), a "
        "scheduler ('round-robin'), a fault model ('crash:count=2') or "
        "an initial configuration ('doped:state=l')",
    )
    return parser


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """Build (and thereby validate) the Scenario named by the CLI flags.

    A non-default scenario also resolves the engine and defaults the
    step budget when the resolved path needs one (sequential fallback,
    sustained faults), announcing both decisions.
    """
    scenario = Scenario(
        scheduler=args.scheduler,
        faults=tuple(args.faults or ()),
        init=args.init,
    )
    if scenario.is_default:
        return scenario
    resolved = resolve_engine(args.engine, scenario, warn=False)
    if resolved != args.engine:
        print(
            f"note: engine {args.engine!r} does not support this scenario; "
            f"using {resolved!r}"
        )
        args.engine = resolved
    if args.max_steps is None and (
        resolved == "sequential" or scenario.has_unbounded_faults
    ):
        args.max_steps = DEFAULT_SCENARIO_BUDGET
        print(f"note: defaulting --max-steps to {DEFAULT_SCENARIO_BUDGET}")
    return scenario


def _store_from_args(args: argparse.Namespace) -> ResultStore | None:
    """The result store named by --cache, unless --no-cache vetoes it."""
    if args.no_cache or args.cache is None:
        return None
    return ResultStore(args.cache)


def _report_cache(store: ResultStore | None, total: int) -> None:
    """The post-run cache summary line (format relied on by CI greps)."""
    if store is None:
        return
    stats = store.stats()
    print(f"\ncache: {stats.hits}/{total} trials cached ({store.root})")


def _write_json(text: str, out, gap: str = "\n") -> None:
    """Write one JSON document to the ``--out`` path, or to the stdout
    that :func:`main` keeps for it alone on ``--out -``."""
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{gap}wrote {out}")
    else:
        out.write(text)


def _finish_batch(args: argparse.Namespace, store, result) -> int:
    """The cache line and ``--out`` that end ``sweep`` and ``robustness``."""
    _report_cache(store, len(result.records))
    if args.out is not None:
        _write_json(result.to_json() + "\n", args.out)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    protocol = registry.instantiate(args.protocol)
    scenario = _scenario_from_args(args)
    trial = TrialSpec(
        protocol=registry.canonical_spec(args.protocol), n=args.n, trial=0,
        seed=args.seed, engine=args.engine, max_steps=args.max_steps,
        scenario=scenario,
    )
    store = _store_from_args(args)
    record = result = None
    if store is not None:
        from repro.service.keys import trial_key

        key = trial_key(trial)
        record = store.get(key)
    if record is None:
        record, result = run_one(protocol, trial)
        if store is not None:
            store.put(key, record, trial.kind)
    print(f"protocol      : {protocol.name}")
    print(f"population    : {args.n}")
    if not scenario.is_default:
        print(f"scenario      : {scenario.describe()}")
        print(f"engine        : {args.engine}")
    print(f"converged     : {record.converged} ({record.stop_reason})")
    print(f"steps         : {record.steps}")
    print(f"effective     : {record.effective_steps}")
    print(f"convergence t : {record.value}")
    if result is None:
        print(
            "cache         : hit — engine skipped (final-configuration "
            "summaries need --no-cache)"
        )
        _report_cache(store, 1)
        return 0
    alive = survivors(result.config)
    if len(alive) < args.n:
        print(f"survivors     : {len(alive)} of {args.n}")
    print(f"target reached: {protocol.target_reached(result.config)}")
    print(f"states        : {state_summary(result.config)}")
    print("components    :")
    print(component_summary(result.config))
    return 0


def _sweep_spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    scenario = _scenario_from_args(args)
    return ExperimentSpec(
        protocol=args.protocol,
        sizes=args.sizes,
        trials=args.trials,
        engine=args.engine,
        measure=args.measure,
        seed_policy=args.seed_policy,
        base_seed=args.seed,
        max_steps=args.max_steps,
        scenario=scenario,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_args(args)
    scenario = spec.scenario
    if not scenario.is_default:
        print(f"scenario: {scenario.describe()} (engine: {args.engine})\n")
    store = _store_from_args(args)
    result = Runner(jobs=args.jobs, cache=store).run(spec)
    summaries = result.summaries()
    print(f"{'n':>6} {'mean':>12} {'±95%':>10} {'min':>10} {'max':>10}")
    for n in spec.sizes:
        summary = summaries[n]
        print(
            f"{n:>6} {summary.mean:>12.1f} {summary.ci95_halfwidth:>10.1f} "
            f"{summary.minimum:>10} {summary.maximum:>10}"
        )
    if len(spec.sizes) >= 3:
        try:
            fit = fit_power_law(
                list(spec.sizes), [summaries[n].mean for n in spec.sizes]
            )
        except ValueError as exc:
            # e.g. a zero mean: edge-free processes never change output.
            print(f"\nfit: skipped ({exc})")
        else:
            print(f"\nfit: {fit.describe()}")
    return _finish_batch(args, store, result)


def _cmd_robustness(args: argparse.Namespace) -> int:
    if args.max_steps is None:
        args.max_steps = DEFAULT_SCENARIO_BUDGET
        print(f"note: defaulting --max-steps to {DEFAULT_SCENARIO_BUDGET}")
    spec = RobustnessSpec(
        protocols=tuple(args.protocols),
        # The spec normalizes loads (ints stay ints) on construction.
        loads=args.loads,
        n=args.n,
        trials=args.trials,
        faults=args.faults,
        at=args.at,
        scheduler=args.scheduler,
        engine=args.engine,
        measure=args.measure,
        base_seed=args.seed,
        max_steps=args.max_steps,
    )
    print(
        f"robustness: {args.faults} loads={','.join(map(str, spec.loads))} "
        f"n={spec.n} trials={spec.trials} at={spec.fault_at} "
        f"scheduler={spec.scheduler} engine={spec.engine}\n"
    )
    store = _store_from_args(args)
    result = run_robustness(spec, jobs=args.jobs, cache=store)
    width = max(len(p) for p in spec.protocols)
    print(
        f"{'protocol':<{width}} {'load':>8} {'survival':>9} "
        f"{'restab mean':>12} {'converged':>10}"
    )
    for protocol in spec.protocols:
        survival = result.survival_curve(protocol)
        restab = result.restabilization_curve(protocol)
        for load in spec.loads:
            cell = result.records_for(protocol, load)
            converged = sum(r.converged for r in cell)
            mean = restab[load]
            mean_text = f"{mean:.0f}" if mean is not None else "-"
            print(
                f"{protocol:<{width}} {load:>8} {survival[load]:>9.2f} "
                f"{mean_text:>12} {converged:>7}/{len(cell)}"
            )
    if len(spec.protocols) >= 2:
        baseline = spec.protocols[0]
        for challenger in spec.protocols[1:]:
            verdict = (
                "dominates"
                if result.dominates(challenger, baseline)
                else "does NOT dominate"
            )
            print(f"\n{challenger} {verdict} {baseline} under {args.faults} load")
    return _finish_batch(args, store, result)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import serve

    serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_dir=args.store or None,
    )
    return 0


def _print_job_status(status: dict) -> None:
    print(f"id        : {status['id']}")
    print(f"kind      : {status['kind']}")
    print(f"state     : {status['state']}")
    print(f"trials    : {status['completed']}/{status['total']}")
    print(f"cached    : {status['cached']}/{status['total']}")
    if status["running"]:
        print(f"running   : {status['running']}")
    if status["error"]:
        print(f"error     : {status['error']}")


def _write_result_payload(payload: dict, out) -> None:
    """Persist a fetched result — canonical key order, so two fetches of
    identical results are byte-identical files (the CI contract)."""
    text = json.dumps(payload["result"], indent=2, sort_keys=True) + "\n"
    _write_json(text, out, gap="")


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_args(args)
    client = ServiceClient(args.url)
    job = client.submit(
        spec.to_dict(), stream=True if args.stream else None
    )
    print(f"submitted {job['id']}: {job['total']} trials -> {args.url}")
    if args.stream:
        print(f"watch at: {client.url}/jobs/{job['id']}/watch")
    if not args.wait:
        print(f"poll with: repro-net status {job['id']} --url {args.url}")
        return 0
    status = client.wait(job["id"])
    _print_job_status(status)
    if args.out is not None:
        _write_result_payload(client.result(job["id"]), args.out)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.job is not None:
        _print_job_status(client.status(args.job))
        return 0
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'id':<10} {'kind':<12} {'state':<10} {'done':>9} {'cached':>9}")
    for status in jobs:
        print(
            f"{status['id']:<10} {status['kind']:<12} {status['state']:<10} "
            f"{status['completed']:>4}/{status['total']:<4} "
            f"{status['cached']:>4}/{status['total']:<4}"
        )
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.wait:
        client.wait(args.job)
    payload = client.result(args.job)
    print(f"id        : {payload['id']}")
    print(f"state     : {payload['state']}")
    print(f"partial   : {payload['partial']}")
    print(f"trials    : {payload['completed']}/{payload['total']}")
    print(f"cached    : {payload['cached']}/{payload['total']}")
    if args.out is not None:
        _write_result_payload(payload, args.out)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    status = client.cancel(args.job)
    print(f"{status['id']}: {status['state']}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import re
    import threading
    import time

    if re.fullmatch(r"job-\d+", args.target):
        client = ServiceClient(args.url)
        try:
            client.status(args.target)  # an unknown job fails here
        finally:
            client.close()
        print(f"{client.url}/jobs/{args.target}/watch")
        return 0
    scenario = _scenario_from_args(args)
    # The legacy seed policy gives trial 0 the seed --seed: the trial
    # `repro-net run <spec> -n N --seed S` runs.
    spec = ExperimentSpec(
        protocol=args.target,
        sizes=(args.n,),
        trials=1,
        seed_policy="legacy",
        base_seed=args.seed,
        engine=args.engine,
        max_steps=args.max_steps,
        scenario=scenario,
    )
    registry.instantiate(spec.protocol)  # a bad parameter fails here
    service = ExperimentService(workers=1, host=args.host, port=args.port)
    service.start()
    try:
        job = service.call(service.jobs.submit(spec, stream=True))
        url = f"{service.url}/jobs/{job.id}"
        print(f"{url}/watch")
        print(f"stream: {url}/events  snapshot: {url}/census  "
              "(Ctrl-C to stop)")
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            threading.Event().wait()
    except KeyboardInterrupt:
        print("\nstopping")
    finally:
        service.stop()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    out = args.out or "BENCH_robustness.json"
    to_file = isinstance(out, str)
    record = bench_robustness(
        trials=args.trials, jobs=args.jobs, base_seed=args.seed,
        out=out if to_file else None,
    )
    print(format_bench_robustness(record))
    if to_file:
        print(f"\nwrote {out}")
    else:
        out.write(json.dumps(record, indent=2) + "\n")
    return 0


def _print_registry_table(entries, title: str | None = None) -> None:
    indent = "  " if title else ""
    if title:
        print(f"{title}:")
    width = max(len(e.signature()) for e in entries)
    for entry in entries:
        line = f"{indent}{entry.signature():<{width}}  {entry.description}"
        if entry.aliases:
            line += f" (aliases: {', '.join(entry.aliases)})"
        print(line)


#: Scenario axes probed by ``list --engines``, each represented by one
#: canonical scenario (support is declared per axis, not per spec).
ENGINE_SUPPORT_AXES: tuple[tuple[str, Scenario], ...] = (
    ("uniform", Scenario()),
    ("schedulers", Scenario(scheduler="round-robin")),
    ("crash/arrive/churn", Scenario(faults=("crash:count=1,at=40",))),
    ("edge-rate/drop", Scenario(faults=("edge-rate:rate=0.0001",))),
    ("cut/byzantine", Scenario(faults=("cut:edges=0-1,at=10",))),
    ("doped/graph init", Scenario(init="doped:state=l,count=2")),
)


def _print_engine_table() -> None:
    print("engines (scenario support; '-' falls back to 'sequential'):")
    names = sorted(ENGINES)
    width = max(len(name) for name in names)
    header = "  ".join(label for label, _ in ENGINE_SUPPORT_AXES)
    print(f"  {'':<{width}}  {header}")
    for name in names:
        row = "  ".join(
            f"{'yes' if ENGINES[name].supports(scenario) else '-':<{len(label)}}"
            for label, scenario in ENGINE_SUPPORT_AXES
        )
        print(f"  {name:<{width}}  {row}")
    print(
        "\nthe 'count' engine is anonymity-native: it runs a (state -> "
        "count) census\nand declines scenarios that address node "
        "identities; 'repro-net run --engine'\nfalls back to the "
        "sequential reference for unsupported scenarios"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    listed = False
    for _, flag, title, spec_registry in REGISTRIES:
        if flag is not None and getattr(args, flag):
            _print_registry_table(spec_registry.available(), title)
            listed = True
    if args.engines:
        _print_engine_table()
    elif not listed:
        _print_registry_table(registry.available())
        print(
            "\nregistry coverage: complete — the tm/ machines and the "
            "universal constructor\nrun as 'line-tm', 'tm-decider' and "
            "'universal' specs; every entry above is\nexercised by "
            "'repro-net conformance'"
        )
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.testing import (
        CHECKS,
        DEFAULT_SETTINGS,
        format_outcomes,
        run_conformance,
    )

    if args.list_checks:
        width = max(len(name) for name in CHECKS)
        for name, fn in CHECKS.items():
            summary = (fn.__doc__ or "").strip().split("\n")[0]
            print(f"{name:<{width}}  {summary}")
        return 0
    settings = DEFAULT_SETTINGS
    if args.seeds is not None:
        from dataclasses import replace

        settings = replace(settings, seeds=args.seeds)
    outcomes = run_conformance(
        specs=args.protocols or None,
        checks=args.checks,
        settings=settings,
    )
    print(format_outcomes(outcomes))
    failed = [o for o in outcomes if not o.passed and not o.skipped]
    return 1 if failed else 0


#: Populations probed (in order) when ``verify`` is given no --n.
VERIFY_POPULATIONS = (4, 5, 3, 2, 6)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        DEFAULT_MAX_CONFIGS,
        VerifyCache,
        VerifyError,
        model_check,
        protocol_digest,
        run_lints,
    )

    checks = args.checks
    unknown = set(checks) - {"lints", "model"}
    if unknown:
        raise SpecError(
            f"unknown verify check(s) {sorted(unknown)}; "
            "choose from 'lints', 'model'"
        )
    max_configs = (
        args.max_configs if args.max_configs is not None
        else DEFAULT_MAX_CONFIGS
    )
    cache = VerifyCache(args.cache_dir) if args.cache_dir else None
    dot_path = args.counterexample_dot
    specs = args.protocols or sorted(registry.names())
    failures = 0
    for spec in specs:
        protocol = registry.instantiate(spec)
        if protocol.states is None:
            print(f"{spec}: SKIP (structured state space, no enumerable Q)")
            continue
        if "lints" in checks:
            report = run_lints(protocol)
            print(report.summary())
            if not report.ok:
                failures += 1
        if "model" in checks:
            if args.n is not None:
                candidates: tuple[int, ...] = (args.n,)
            else:
                candidates = VERIFY_POPULATIONS
            n = None
            for candidate in candidates:
                try:
                    protocol.initial_configuration(candidate)
                except ReproError:
                    continue
                n = candidate
                break
            if n is None:
                print(
                    f"{spec}: model SKIP (no accepted population in "
                    f"{candidates})"
                )
                continue
            digest = protocol_digest(
                protocol, n, target=None, max_configs=max_configs
            )
            cached = cache.get(digest) if cache else None
            if cached is not None:
                print(
                    f"{spec} @ n={n}: OK (cached verdict: "
                    f"{cached.get('summary', 'passing')})"
                )
                continue
            try:
                result = model_check(protocol, n, max_configs=max_configs)
            except VerifyError as exc:
                print(f"{spec}: model SKIP ({exc})")
                continue
            print(result.summary())
            if result.ok:
                if cache:
                    cache.put(digest, {
                        "ok": True,
                        "protocol": result.protocol,
                        "n": result.n,
                        "summary": (
                            f"{result.n_configs} configs, "
                            f"{result.n_terminal_sccs} terminal SCC(s), "
                            f"checked={'+'.join(result.checked)}"
                        ),
                    })
            else:
                failures += 1
                for violation in result.violations:
                    if violation.counterexample is None:
                        continue
                    print(violation.counterexample.format())
                    if dot_path:
                        from repro.viz import trace_to_dot

                        trace = violation.counterexample.to_trace()
                        with open(dot_path, "w") as fh:
                            fh.write(trace_to_dot(
                                trace, name=protocol.name.replace("-", "_")
                            ))
                        print(f"counterexample DOT written to {dot_path}")
                        dot_path = None  # first violation only
    if failures:
        print(f"repro-net verify: {failures} protocol(s) FAILED")
        return 1
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    """Show the entry of the first registry in :data:`REGISTRIES` that
    knows the spec.  A bare name is described even when a parameter has
    no default (``describe edge-drop``); given values are validated, and
    the canonical spec (a protocol: its state and rule counts) appears
    once every parameter is bound."""
    first_error = None
    for kind, _, _, spec_registry in REGISTRIES:
        try:
            entry, given = spec_registry.lookup(args.spec)
        except SpecError as exc:
            first_error = first_error or exc
        else:
            break
    else:
        raise first_error
    declared = {p.name for p in entry.params}
    unknown = set(given) - declared
    if unknown:
        raise spec_registry.error(
            f"{kind} {entry.name!r} has no parameter(s) {sorted(unknown)}; "
            f"declared: {sorted(declared) or 'none'}"
        )
    bound = {
        p.name: (
            p.coerce(given[p.name], error=spec_registry.error)
            if p.name in given else p.default
        )
        for p in entry.params
    }
    fully_bound = all(value is not None for value in bound.values())
    protocol = None
    if kind != "protocol":
        print(f"kind        : {kind}")
    elif fully_bound:
        protocol = entry.instantiate(**bound)
    print(f"name        : {entry.name}")
    if entry.aliases:
        print(f"aliases     : {', '.join(entry.aliases)}")
    if getattr(entry, "shorthand", None):
        print(f"shorthand   : {entry.shorthand}")
    print(f"class       : {entry.factory.__module__}.{entry.factory.__name__}")
    print(f"description : {entry.description}")
    if entry.params:
        print("parameters  :")
        for p in entry.params:
            value = bound[p.name]
            shown = "(required)" if value is None else f"= {value}"
            extra = f" (>= {p.minimum})" if p.minimum is not None else ""
            help_text = f" — {p.help}" if p.help else ""
            print(
                f"  {p.name}: {p.type.__name__} {shown}"
                f"{extra}{help_text}"
            )
    else:
        print("parameters  : none")
    if protocol is not None:
        size = getattr(protocol, "size", None)
        if size is not None:
            print(f"states      : {size}")
        rules = getattr(protocol, "rules", None)
        if callable(rules):
            print(f"rules       : {len(rules())}")
    elif fully_bound:
        print(f"canonical   : {format_spec(entry.name, bound, entry.params)}")
    doc = (entry.factory.__doc__ or "").strip()
    if doc:
        first_paragraph = doc.split("\n\n")[0]
        print("doc         :")
        for line in first_paragraph.splitlines():
            print(f"  {line.strip()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (
        getattr(args, "engine", None) == "sequential"
        and getattr(args, "max_steps", None) is None
        and getattr(args, "scheduler", "uniform") == "uniform"
        and not getattr(args, "faults", None)
        and not getattr(args, "init", "")
    ):
        # Scenario runs default their own budget; an explicitly requested
        # sequential engine without one is still a usage error.
        parser.error("--engine sequential requires a finite --max-steps budget")
    report = sys.stdout
    if getattr(args, "out", None) == "-":
        # stdout carries the one JSON document; the report goes to stderr.
        args.out, report = sys.stdout, sys.stderr
    try:
        with redirect_stdout(report):
            return args.handler(args)
    except ReproError as exc:
        # Expected model/simulation failures (budget exhausted, unknown
        # protocol spec, bad configuration...) get a clean one-liner, not
        # a traceback.
        print(f"repro-net: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
