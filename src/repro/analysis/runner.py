"""Declarative experiment layer: specs in, structured results out.

The paper's experiments are all sweeps — expected convergence time of a
constructor over population sizes under the uniform random scheduler.
This module makes such a sweep a *value*: a frozen
:class:`ExperimentSpec` names the protocol (a registry spec string), the
sizes, the trial count, the engine, the measure and the seed policy; the
:class:`Runner` expands it into independent :class:`TrialSpec` s and runs
them in-process (``jobs=1``) or across a :mod:`multiprocessing` pool
(``jobs > 1``; trials are embarrassingly parallel), producing a
:class:`SweepResult` of per-trial :class:`TrialRecord` s that round-trips
through JSON via :mod:`repro.core.serialization`.  Robustness grids
(:mod:`repro.analysis.robustness`) expand into the same trial and record
types — a trial that carries a fault load — and run through the same
:func:`run_trial` and :func:`cached_map`.

Determinism contract: a trial's simulation outcome depends only on its
:class:`TrialSpec` (protocol, n, seed, engine, budget) — never on which
process ran it or in what order — so serial and parallel execution of
the same spec produce identical records (up to wall-clock timing).

Seed policies
-------------
``hashed`` (default)
    Per-trial seeds are derived by hashing ``(base_seed, protocol, n,
    trial)`` (seed-sequence style), so every cell of a sweep draws
    statistically independent randomness.
``legacy``
    The seed-era scheme ``base_seed + trial``: every ``n`` in a sweep
    reuses the same seeds, cross-correlating cells.  Kept only to
    reproduce historical numbers.

Typical use::

    spec = ExperimentSpec(
        protocol="simple-global-line", sizes=(30, 60, 120), trials=10,
    )
    result = Runner(jobs=4).run(spec)
    result.summaries()          # {n: Summary}
    result.to_json()            # stable JSON, Runner-independent
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import statistics
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from repro.core.errors import ReproError
from repro.core.faults import compact_survivors, survivors
from repro.core.protocol import Protocol
from repro.core.scenario import DEFAULT_SCENARIO, Scenario, resolve_engine
from repro.core.serialization import Serializable
from repro.core.simulator import ENGINES, RunResult, _execute
from repro.protocols import registry

if TYPE_CHECKING:  # pragma: no cover - type-only (service sits above us)
    from repro.service.store import ResultStore

#: How to read "the time" off a run result.
MEASURES: dict[str, Callable[[RunResult], int]] = {
    # The paper's convergence time for network constructors: the last
    # step at which the output graph changed.
    "output": lambda r: r.last_output_change_step,
    # For the Section 3.3 processes: the last change of any kind.
    "last_change": lambda r: r.last_change_step,
    # Total steps until the engine detected stabilization.
    "steps": lambda r: r.steps,
    # Number of effective interactions (work performed).
    "effective": lambda r: r.effective_steps,
}


class ExperimentError(ReproError):
    """An experiment spec is invalid or its execution failed."""


def require_distinct(axis: str, values: Sequence) -> None:
    """Reject a sweep axis that lists one canonical value twice: the
    repeated cell would rerun the same seeds and count them twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ExperimentError(f"{axis} lists {value!r} twice")


def require_budget(max_steps: object) -> None:
    """Reject a step budget no engine can run: one that is neither
    ``None`` (unbounded) nor an ``int`` >= 1."""
    if max_steps is not None and (
        type(max_steps) is not int or max_steps < 1
    ):
        raise ExperimentError(
            f"max_steps must be an integer >= 1, got {max_steps!r}"
        )


def require_count(name: str, value: object, least: int | None) -> None:
    """Reject a spec integer (a population size, a trial count, a
    certificate poll spacing, a seed) that is not an ``int``, or is
    below ``least`` where one is given.  A ``bool``, a float, a numeric
    string and ``None`` are not ``int`` here: each would run as some
    other value, or fail only once the sweep runs."""
    if type(value) is not int:
        raise ExperimentError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ExperimentError(f"{name} must be >= {least}, got {value!r}")


# ----------------------------------------------------------------------
# Seed policies
# ----------------------------------------------------------------------

def _hashed_seed(base_seed: int, protocol: str, n: int, trial: int) -> int:
    payload = f"{base_seed}|{protocol}|{n}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _legacy_seed(base_seed: int, protocol: str, n: int, trial: int) -> int:
    return base_seed + trial


#: name -> seed derivation ``(base_seed, protocol_key, n, trial) -> seed``.
SEED_POLICIES: dict[str, Callable[[int, str, int, int], int]] = {
    "hashed": _hashed_seed,
    "legacy": _legacy_seed,
}


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Summary:
    """Sample statistics of one (protocol, n) cell."""

    n: int
    trials: int
    mean: float
    stdev: float
    minimum: int
    maximum: int

    @property
    def ci95_halfwidth(self) -> float:
        """Normal-approximation 95% confidence half-width of the mean."""
        if self.trials < 2:
            return float("inf")
        return 1.96 * self.stdev / math.sqrt(self.trials)

    @property
    def ci95(self) -> tuple[float, float]:
        h = self.ci95_halfwidth
        return (self.mean - h, self.mean + h)


def summarize(n: int, times: Sequence[int]) -> Summary:
    """Sample statistics for one cell."""
    return Summary(
        n=n,
        trials=len(times),
        mean=statistics.fmean(times),
        stdev=statistics.stdev(times) if len(times) > 1 else 0.0,
        minimum=min(times),
        maximum=max(times),
    )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec(Serializable):
    """A complete, serializable description of one sweep.

    ``protocol`` is a registry spec string (``"simple-global-line"``,
    ``"3rc"``, ``"c-cliques:c=4"``); it is canonicalized on construction
    so equal experiments compare (and hash, and serialize) equal.

    ``scenario`` bundles the environment axes — scheduler, fault
    injection, initial configuration (see :mod:`repro.core.scenario`).
    The default scenario is exactly the pre-scenario behavior, so specs
    that never mention it produce bit-identical records.  A scenario the
    requested ``engine`` cannot run routes every trial to the
    ``sequential`` reference engine, which needs a finite ``max_steps``
    budget — validated here, at spec construction.  (The
    anonymity-native ``count`` engine declines identity-addressed
    scenarios this way; on census-safe scenarios it makes n = 10^5..10^6
    sweeps practical — see ``docs/experiments.md``.)

    Per-trial seeds are derived from ``(base_seed, protocol, n, trial)``
    only: the same trial under different scenarios sees the same
    randomness, so scenario sweeps are paired experiments.
    """

    protocol: str
    sizes: tuple[int, ...]
    trials: int
    engine: str = "indexed"
    measure: str = "output"
    seed_policy: str = "hashed"
    base_seed: int = 0
    max_steps: int | None = None
    check_interval: int = 1
    label: str = ""
    scenario: Scenario = DEFAULT_SCENARIO

    FORMAT_VERSION: ClassVar[int] = 1
    #: A payload may lack a ``label``, and one written before the
    #: scenario axis a ``scenario``.
    OPTIONAL_FIELDS: ClassVar[tuple[str, ...]] = ("label", "scenario")

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "protocol", registry.canonical_spec(self.protocol)
        )
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if isinstance(self.scenario, dict):
            object.__setattr__(
                self, "scenario", Scenario.from_dict(self.scenario)
            )
        elif self.scenario is None:
            object.__setattr__(self, "scenario", DEFAULT_SCENARIO)
        if not self.sizes:
            raise ExperimentError("spec needs at least one population size")
        for n in self.sizes:
            require_count("population sizes", n, 2)
        require_distinct("sizes", self.sizes)
        require_count("trials", self.trials, 1)
        require_budget(self.max_steps)
        require_count("check_interval", self.check_interval, 1)
        require_count("base_seed", self.base_seed, None)
        if self.engine not in ENGINES:
            raise ExperimentError(
                f"unknown engine {self.engine!r}; choose from {sorted(ENGINES)}"
            )
        if self.measure not in MEASURES:
            raise ExperimentError(
                f"unknown measure {self.measure!r}; "
                f"choose from {sorted(MEASURES)}"
            )
        if self.seed_policy not in SEED_POLICIES:
            raise ExperimentError(
                f"unknown seed policy {self.seed_policy!r}; "
                f"choose from {sorted(SEED_POLICIES)}"
            )
        if self.max_steps is None:
            if self.resolved_engine() == "sequential":
                raise ExperimentError(
                    "the sequential engine walks every scheduler pick and "
                    "needs a finite max_steps budget (non-uniform "
                    "schedulers route to it)"
                )
            if self.scenario.has_unbounded_faults:
                raise ExperimentError(
                    "sustained fault models (edge-drop) may perturb the "
                    "run forever; set a finite max_steps budget"
                )

    def resolved_engine(self) -> str:
        """The engine that will actually run this spec's scenario (the
        requested one, or the ``sequential`` fallback)."""
        return resolve_engine(self.engine, self.scenario, warn=False)

    def expand(self) -> list[TrialSpec]:
        """The independent trials of this sweep, in (n, trial) order."""
        seed_of = SEED_POLICIES[self.seed_policy]
        return [
            TrialSpec(
                protocol=self.protocol,
                n=n,
                trial=trial,
                seed=seed_of(self.base_seed, self.protocol, n, trial),
                engine=self.engine,
                measure=self.measure,
                max_steps=self.max_steps,
                check_interval=self.check_interval,
                scenario=self.scenario,
            )
            for n in self.sizes
            for trial in range(self.trials)
        ]


@dataclass(frozen=True, slots=True)
class TrialSpec:
    """One independent trial of an expanded :class:`ExperimentSpec` or
    :class:`~repro.analysis.robustness.RobustnessSpec`.

    Fully self-describing and picklable: a process pool ships these to
    worker processes, which rebuild the protocol from the registry spec
    string.  A robustness cell sets ``load`` (its fault load) and
    ``fault`` (the family's fault spec string as the family wrote it,
    ``""`` at load 0; ``scenario`` holds its canonical form): such a
    trial runs without raising on budget exhaustion and records whether
    the survivors reached the target.
    """

    protocol: str
    n: int
    trial: int
    seed: int
    engine: str = "indexed"
    measure: str = "output"
    max_steps: int | None = None
    check_interval: int = 1
    scenario: Scenario = DEFAULT_SCENARIO
    load: float | None = None
    fault: str = ""

    @property
    def kind(self) -> str:
        """``"robustness"`` with a load, else ``"trial"``: the ``kind``
        tag of the trial's key payload and of its stored record."""
        return "trial" if self.load is None else "robustness"


@dataclass(frozen=True, kw_only=True, slots=True)
class TrialRecord:
    """Outcome of one trial.

    Every field except ``elapsed_seconds`` is a deterministic function of
    the :class:`TrialSpec`; :meth:`deterministic` strips the timing so
    records from serial and parallel runs compare equal.

    ``protocol``, ``load``, ``survived`` and ``alive`` are set on
    robustness trials only (``None``, and left out of the payload, on
    sweep trials).  ``survived`` is the headline bit: the run stabilized
    within budget *and* the surviving population (crashed nodes
    compacted away, see :func:`repro.core.faults.compact_survivors`)
    forms the protocol's target construction; ``alive`` counts the
    survivors.  Under a mid-run fault ``value`` includes the damage and
    repair, i.e. it is the *re-stabilization* time.
    """

    protocol: str | None = None
    load: float | None = None
    n: int
    trial: int
    seed: int
    value: int
    steps: int
    effective_steps: int
    converged: bool
    survived: bool | None = None
    alive: int | None = None
    stop_reason: str
    elapsed_seconds: float

    OPTIONAL_FIELDS: ClassVar[tuple[str, ...]] = (
        "protocol", "load", "survived", "alive",
    )

    def deterministic(self) -> TrialRecord:
        return replace(self, elapsed_seconds=0.0)


@dataclass(frozen=True)
class SweepResult(Serializable):
    """All trial records of one executed :class:`ExperimentSpec`."""

    spec: ExperimentSpec
    records: tuple[TrialRecord, ...]

    FORMAT_VERSION: ClassVar[int] = 1

    def times(self, n: int) -> list[int]:
        """Measured values of size-``n`` trials, in trial order."""
        return [r.value for r in self.records if r.n == n]

    def summaries(self) -> dict[int, Summary]:
        """Per-size sample statistics, keyed by population size."""
        return {n: summarize(n, self.times(n)) for n in self.spec.sizes}


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------

class ExecutionCounter:
    """Counts trials actually executed by an engine **in this process**.

    The observability hook behind the cache contract: a sweep repeated
    against a warm :class:`~repro.service.store.ResultStore` must
    perform *zero* engine runs, and tests assert exactly that by
    snapshotting :data:`EXECUTION_COUNTER` around the warm run.  Worker
    processes hold their own module copy, so at ``jobs > 1`` the
    parent's counter stays at 0 — run the assertion at ``jobs=1`` (or
    read it for what it is: in-process executions only).
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def increment(self) -> None:
        self.count += 1


#: Module-level instance every trial-execution path bumps.
EXECUTION_COUNTER = ExecutionCounter()


def run_one(
    protocol: Protocol, trial: TrialSpec, bus=None
) -> tuple[TrialRecord, RunResult]:
    """Run ``trial`` on an already-instantiated protocol and record the
    outcome.

    The single trial-execution code path: :func:`run_trial` and
    ``repro-net run`` both end up here; the latter also prints from the
    returned :class:`~repro.core.simulator.RunResult`.  The default
    scenario takes exactly the pre-scenario path (bit-identical
    records); non-default scenarios resolve the engine through
    ``supports(scenario)`` and never raise on budget exhaustion — the
    record says ``converged=False`` instead.  Neither does a robustness
    trial (one with a ``load``), whose record also says which nodes
    survived and whether they reached the target.
    """
    EXECUTION_COUNTER.increment()
    robustness = trial.load is not None
    start = time.perf_counter()
    result = _execute(
        protocol, trial.n, engine=trial.engine, seed=trial.seed,
        max_steps=trial.max_steps, scenario=trial.scenario,
        check_interval=trial.check_interval, bus=bus, warn=False,
        raise_on_budget=not robustness,
    )
    elapsed = time.perf_counter() - start
    survived = alive = None
    if robustness:
        alive = len(survivors(result.config))
        survived = result.converged and bool(
            protocol.target_reached(compact_survivors(result.config))
        )
    record = TrialRecord(
        protocol=trial.protocol if robustness else None,
        load=trial.load,
        n=trial.n,
        trial=trial.trial,
        seed=trial.seed,
        value=MEASURES[trial.measure](result),
        steps=result.steps,
        effective_steps=result.effective_steps,
        converged=result.converged,
        survived=survived,
        alive=alive,
        stop_reason=result.stop_reason,
        elapsed_seconds=elapsed,
    )
    return record, result


def run_trial(trial: TrialSpec, bus=None) -> TrialRecord:
    """Execute one :class:`TrialSpec` (module-level: picklable).

    The protocol comes from :func:`repro.protocols.registry.shared`, one
    instance per spec string per process, so the trials of one spec
    (a sweep, a robustness grid, a service batch) compile it once.  For
    a protocol that declares its state set they share one rule table,
    with its resolutions and the indexed engine's pair-class and plan
    memos; a lazily interning protocol still compiles a fresh table per
    run.  Every memo is a pure function of the rules and ids are fixed
    at compile time, so a record never depends on which trials ran
    before it in the process (see
    :meth:`~repro.core.protocol.Protocol.compile`).

    ``bus`` (an optional :class:`~repro.core.trace.TraceBus`) streams
    the run's events/census/fault frames; only an in-process run
    (``jobs=1``) can pass one — process workers run unobserved.
    """
    record, _ = run_one(registry.shared(trial.protocol), trial, bus)
    return record


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

#: Chunks per worker: ``chunksize = len(items) // (jobs * DIVISOR)``.
#: 4 balances scheduling overhead against stragglers for trial-sized
#: work items.
POOL_CHUNK_DIVISOR = 4


def pool_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """Order-preserving map — *the* process-pool entry point.

    In-process when ``jobs == 1`` or there is nothing to fan out;
    otherwise a :mod:`multiprocessing` pool (platform-default start
    method) with the chunking policy above.  ``fn`` must be a picklable
    module-level callable.  ``pool.map`` preserves input order, so
    parallel results line up with a serial map's exactly — the
    mechanism behind the serial/parallel equivalence contract.  Sweeps,
    robustness sweeps and the experiment service's worker fleet all fan
    out through here.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (jobs * POOL_CHUNK_DIVISOR))
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(fn, list(items), chunksize=chunksize)


def cached_map(
    trials: Sequence[TrialSpec], jobs: int, store: "ResultStore | None"
) -> list[TrialRecord]:
    """:func:`run_trial` over ``trials`` through :func:`pool_map`, and
    through a content-addressed result store when there is one.

    A trial whose :func:`~repro.service.keys.trial_key` (its code
    version digests the trial's protocol) already has a stored record is
    served from disk without touching an engine; the misses run through
    :func:`pool_map` and are stored back under the trial's
    :attr:`~TrialSpec.kind`.  Records come back in trial order.  Because
    a stored record *is* the cold run's record (wall-clock timing
    included), a warm re-run returns the cold records byte for byte.
    """
    if store is None:
        return pool_map(run_trial, trials, jobs)
    # Imported lazily: the service layer sits above the runner.
    from repro.service.keys import code_digest, trial_key

    digests = {p: code_digest(p) for p in {t.protocol for t in trials}}
    keys = [trial_key(t, code_version=digests[t.protocol]) for t in trials]
    records = [store.get(k) for k in keys]
    misses = [i for i, record in enumerate(records) if record is None]
    fresh = pool_map(run_trial, [trials[i] for i in misses], jobs)
    for i, record in zip(misses, fresh):
        store.put(keys[i], record, trials[i].kind)
        records[i] = record
    return records


@dataclass(frozen=True)
class Runner:
    """Executes :class:`ExperimentSpec` s.

    ``jobs`` is the parallelism degree: ``1`` runs every trial
    in-process, in order; more fans the trials across a process pool
    (:func:`pool_map`).  The records do not depend on it.

    ``cache`` plugs in a content-addressed
    :class:`~repro.service.store.ResultStore` through :func:`cached_map`,
    so a warm re-run returns a :class:`SweepResult` byte-identical to
    the cold one without touching an engine.
    """

    jobs: int = 1
    cache: "ResultStore | None" = None

    def run(self, spec: ExperimentSpec) -> SweepResult:
        """Expand ``spec`` and execute every trial; never partial — a
        trial failure propagates rather than truncating the sweep."""
        # Surface scenario-driven engine rerouting once per sweep (the
        # per-trial resolution itself is silent).
        resolve_engine(spec.engine, spec.scenario, warn=True)
        records = cached_map(spec.expand(), self.jobs, self.cache)
        return SweepResult(spec=spec, records=tuple(records))
