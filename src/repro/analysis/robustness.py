"""Robustness sweeps: protocol survival under increasing fault load.

The *Fault Tolerant Network Constructors* line of work (Michail,
Spirakis & Theofilatos 2019) asks how a construction degrades as the
adversary gets stronger; the NETCS simulator (Amaxilatis et al. 2015)
popularized reporting that degradation as per-load experiment grids.
This module makes such a grid a value, mirroring the sweep layer of
:mod:`repro.analysis.runner`:

* a frozen :class:`RobustnessSpec` names the competing protocols, one
  **fault family** (``crash``, ``edge-drop``, ``edge-rate``, ``churn``
  or ``byzantine``), the **loads** to sweep it over, and optionally an
  adversarial **scheduler** (e.g. ``targeted:aim=leader``) — each load
  expands to a concrete :class:`~repro.core.scenario.Scenario` via
  :data:`FAULT_FAMILIES`;
* :func:`run_robustness` expands the spec into independent
  :class:`~repro.analysis.runner.TrialSpec` s that carry a fault load
  and executes them serially or across cores (the sweep runner's
  :func:`~repro.analysis.runner.run_trial`, order-preserving contract
  and result store);
* a :class:`RobustnessResult` holds per-trial
  :class:`~repro.analysis.runner.TrialRecord` s (with their survival
  fields set) and derives the two headline curves — **survival**
  (fraction of trials whose surviving population stabilized to the
  protocol's target construction) and **re-stabilization time** (the
  convergence measure among surviving trials) — and round-trips through
  JSON via
  :mod:`repro.core.serialization`;
* :func:`bench_robustness` runs the default grid — the three line
  constructors at ``n = 64`` under every fault family — behind
  ``repro-net bench --robustness`` (``BENCH_robustness.json``).

Trial seeds are derived from ``(base_seed, family, load, n, trial)`` —
*not* from the protocol — so every protocol in a spec faces the same
fault streams at the same loads: the sweep is a paired comparison.

Typical use::

    spec = RobustnessSpec(
        protocols=("simple-global-line", "ft-global-line"),
        loads=(0, 1, 2, 4), n=64, trials=10, max_steps=200_000_000,
    )
    result = run_robustness(spec, jobs=4)
    result.survival_curve("ft-global-line")     # {load: fraction}
    result.dominates("ft-global-line", "simple-global-line")
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.analysis.runner import (
    MEASURES,
    ExperimentError,
    TrialRecord,
    TrialSpec,
    _hashed_seed,
    cached_map,
    require_budget,
    require_count,
    require_distinct,
)
from repro.core.scenario import DEFAULT_SCHEDULER, Scenario
from repro.core.scheduler import SCHEDULERS
from repro.core.serialization import Serializable
from repro.core.simulator import ENGINES
from repro.protocols import registry

# ----------------------------------------------------------------------
# Fault families: load -> fault spec string
# ----------------------------------------------------------------------

def _crash_family(load: float, at: int) -> str | None:
    count = int(load)
    if count != load or count < 0:
        raise ExperimentError(
            f"crash loads are node counts (integers >= 0), got {load!r}"
        )
    return f"crash:count={count},at={at}" if count else None


def _rate_family(
    name: str, unit: str = "per-step rates"
) -> Callable[[float, int], str | None]:
    """The family of a sustained model whose load is its ``rate``."""

    def family(load: float, at: int) -> str | None:
        if load < 0 or load >= 1:
            raise ExperimentError(
                f"{name} loads are {unit} in [0, 1), got {load!r}"
            )
        return f"{name}:rate={load}" if load else None

    return family


def _byzantine_family(load: float, at: int) -> str | None:
    count = int(load)
    if count != load or count < 0:
        raise ExperimentError(
            f"byzantine loads are node counts (integers >= 0), got {load!r}"
        )
    # Fixed corruption cadence and mode so the load axis sweeps the
    # *number* of byzantine nodes only — the dimension the FTNC line of
    # work varies.  random-state is the strongest standard mode (any
    # claimed state), the model's default edge-lie probability applies,
    # and the cadence is pinned well below the model default so that a
    # run at bench scale (n = 64) absorbs a handful of corruptions
    # rather than being corrupted faster than any repair can converge.
    if not count:
        return None
    return f"byzantine:count={count},mode=random-state,rate=0.00001"


#: Fault family name -> ``(load, at) -> fault spec`` (``None`` at load 0:
#: the baseline cell runs the default fault-free scenario).  ``at`` is
#: the scheduled step of one-shot families; sustained families (rates)
#: ignore it.
FAULT_FAMILIES: dict[str, Callable[[float, int], str | None]] = {
    "crash": _crash_family,
    "edge-drop": _rate_family("edge-drop"),
    "edge-rate": _rate_family("edge-rate", "per-edge per-step rates"),
    "churn": _rate_family("churn"),
    "byzantine": _byzantine_family,
}


def _format_load(load: float) -> float | int:
    """Loads render as ints when integral so JSON stays tidy."""
    return int(load) if float(load) == int(load) else float(load)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RobustnessSpec(Serializable):
    """A complete, serializable description of one robustness sweep.

    ``protocols`` are registry spec strings (canonicalized on
    construction); ``faults`` names a :data:`FAULT_FAMILIES` entry and
    ``loads`` the strengths to sweep it over (crash/byzantine: node
    counts; edge-drop/edge-rate/churn: per-step rates; load ``0`` is
    the fault-free baseline cell).  ``at`` is the step at which
    one-shot faults fire — ``None`` defaults to ``n * n``, early
    enough that partial structures exist to damage, late enough that
    the construction has started.  ``scheduler`` runs every cell under
    a non-default (typically adversarial) scheduler spec; non-uniform
    schedulers force the sequential reference engine via
    :func:`~repro.core.scenario.resolve_engine`.

    ``max_steps`` is mandatory: under faults a non-tolerant protocol can
    be wrecked into a configuration that never stabilizes *and* never
    quiesces (e.g. a walking leader on a line fragment with no endpoint
    to settle on), so an unbudgeted run may never return.
    """

    protocols: tuple[str, ...]
    loads: tuple[float, ...]
    n: int = 32
    trials: int = 10
    faults: str = "crash"
    at: int | None = None
    scheduler: str = "uniform"
    engine: str = "indexed"
    measure: str = "output"
    base_seed: int = 0
    max_steps: int | None = None
    check_interval: int = 1
    label: str = ""

    FORMAT_VERSION: ClassVar[int] = 1
    #: A payload may lack a ``label``, and one written before the
    #: adversarial axis a ``scheduler``.
    OPTIONAL_FIELDS: ClassVar[tuple[str, ...]] = ("scheduler", "label")

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "protocols",
            tuple(registry.canonical_spec(p) for p in self.protocols),
        )
        object.__setattr__(
            self, "scheduler", SCHEDULERS.canonical(self.scheduler)
        )
        object.__setattr__(
            self, "loads", tuple(_format_load(x) for x in self.loads)
        )
        if not self.protocols:
            raise ExperimentError("spec needs at least one protocol")
        if not self.loads:
            raise ExperimentError("spec needs at least one fault load")
        require_distinct("protocols", self.protocols)
        require_distinct("loads", self.loads)
        require_count("population", self.n, 2)
        require_count("trials", self.trials, 1)
        require_count("base_seed", self.base_seed, None)
        if self.at is not None:
            require_count("at", self.at, 0)
        if self.faults not in FAULT_FAMILIES:
            raise ExperimentError(
                f"unknown fault family {self.faults!r}; "
                f"choose from {sorted(FAULT_FAMILIES)}"
            )
        if self.engine not in ENGINES:
            raise ExperimentError(
                f"unknown engine {self.engine!r}; choose from {sorted(ENGINES)}"
            )
        if self.measure not in MEASURES:
            raise ExperimentError(
                f"unknown measure {self.measure!r}; "
                f"choose from {sorted(MEASURES)}"
            )
        if self.max_steps is None:
            raise ExperimentError(
                "robustness sweeps need a finite max_steps budget: a "
                "faulted run may never stabilize nor quiesce"
            )
        require_budget(self.max_steps)
        require_count("check_interval", self.check_interval, 1)
        # Validate every load eagerly (and thereby the family's domain).
        for load in self.loads:
            self.fault_spec(load)

    @property
    def fault_at(self) -> int:
        """The step at which one-shot faults fire (default ``n * n``)."""
        return self.n * self.n if self.at is None else self.at

    def fault_spec(self, load: float) -> str | None:
        """The fault spec string of one load cell (``None`` at load 0)."""
        return FAULT_FAMILIES[self.faults](load, self.fault_at)

    def scenario(self, load: float) -> Scenario:
        """The scenario of one load cell."""
        spec = self.fault_spec(load)
        return Scenario(
            scheduler=self.scheduler, faults=(spec,) if spec else ()
        )

    def expand(self) -> list[TrialSpec]:
        """The independent trials, in (protocol, load, trial) order.

        Seeds depend on ``(base_seed, scheduler, family, load, n,
        trial)`` only — *not* on the protocol — so the protocols of the
        spec face identical fault streams cell by cell: a paired
        experiment.  (The uniform scheduler is left out of the context
        string so historical crash-sweep seeds are unchanged.)
        """
        context = f"robustness|{self.faults}"
        if self.scheduler != DEFAULT_SCHEDULER:
            context = f"robustness|{self.scheduler}|{self.faults}"
        cells = [
            (load, self.scenario(load), self.fault_spec(load) or "")
            for load in self.loads
        ]
        return [
            TrialSpec(
                protocol=protocol,
                n=self.n,
                trial=trial,
                seed=_hashed_seed(
                    self.base_seed,
                    f"{context}|{load}",
                    self.n,
                    trial,
                ),
                engine=self.engine,
                measure=self.measure,
                max_steps=self.max_steps,
                check_interval=self.check_interval,
                scenario=scenario,
                load=load,
                fault=fault,
            )
            for protocol in self.protocols
            for load, scenario, fault in cells
            for trial in range(self.trials)
        ]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RobustnessResult(Serializable):
    """All trial records of one executed :class:`RobustnessSpec`."""

    spec: RobustnessSpec
    records: tuple[TrialRecord, ...]

    FORMAT_VERSION: ClassVar[int] = 1

    def records_for(
        self, protocol: str, load: float | None = None
    ) -> list[TrialRecord]:
        protocol = registry.canonical_spec(protocol)
        return [
            r
            for r in self.records
            if r.protocol == protocol and (load is None or r.load == load)
        ]

    def survival_rate(self, protocol: str, load: float) -> float:
        """Fraction of (protocol, load) trials that survived."""
        cell = self.records_for(protocol, load)
        if not cell:
            raise ExperimentError(
                f"no records for protocol {protocol!r} at load {load!r}"
            )
        return sum(r.survived for r in cell) / len(cell)

    def survival_curve(self, protocol: str) -> dict[float, float]:
        """``{load: survival fraction}`` over the spec's loads."""
        return {
            load: self.survival_rate(protocol, load)
            for load in self.spec.loads
        }

    def restabilization_curve(self, protocol: str) -> dict[float, float | None]:
        """``{load: mean re-stabilization time among surviving trials}``
        (``None`` for cells with no survivor)."""
        curve: dict[float, float | None] = {}
        for load in self.spec.loads:
            values = [
                r.value for r in self.records_for(protocol, load) if r.survived
            ]
            curve[load] = statistics.fmean(values) if values else None
        return curve

    def dominates(self, challenger: str, baseline: str) -> bool:
        """True when ``challenger``'s survival is at least ``baseline``'s
        at every load and strictly better at some positive load — the
        designed-for-faults protocol should dominate the plain one."""
        c = self.survival_curve(challenger)
        b = self.survival_curve(baseline)
        if any(c[load] < b[load] for load in self.spec.loads):
            return False
        return any(
            c[load] > b[load] for load in self.spec.loads if load > 0
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def run_robustness(
    spec: RobustnessSpec, jobs: int = 1, cache=None
) -> RobustnessResult:
    """Expand ``spec`` and execute every trial (optionally across
    ``jobs`` worker processes; records do not depend on it, as for the
    sweep runner).  Never partial — a trial failure propagates.

    ``cache`` is a content-addressed
    :class:`~repro.service.store.ResultStore`, consulted through the
    same :func:`~repro.analysis.runner.cached_map` as
    :class:`~repro.analysis.runner.Runner` (zero engine runs on a warm
    store).
    """
    records = cached_map(spec.expand(), jobs, cache)
    return RobustnessResult(spec=spec, records=tuple(records))


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
