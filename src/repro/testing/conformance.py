"""Reusable, registry-driven protocol conformance checkers.

NETCS (Amaxilatis et al. 2015) made the case for a simulator in which
*every* protocol is uniformly runnable and checkable; this module is
that contract for the repo.  A conformance **check** is a pure function
``(protocol, spec, settings) -> CheckOutcome`` exercising one model
obligation of Section 3.1 (or of the fault model of Fault Tolerant
Network Constructors 2019); :data:`CHECKS` maps their names and
:func:`conformance_cases` crosses them with every registered protocol,
so a protocol registered tomorrow is exercised with zero new test code.

The checks
----------
``registry``
    The registry record itself: description present, canonical spec
    idempotent, instantiation deterministic, :func:`spec_for` readback
    (when the entry registers a class) round-trips.
``state-closure``
    The reachable state set is closed: enumerable-state protocols are
    closed over their declared ``Q`` (BFS over ``resolve``); structured
    protocols keep the observed state count of a traced run under a
    finite cap.
``rule-table``
    Totality and orientation symmetry of ``delta``: every triple
    resolves to ``None`` or a valid distribution (positive
    probabilities summing to 1, edge outcomes in {0, 1}), and a triple
    defined at *both* orientations must agree under the swap.
``compile``
    ``Protocol.compile()`` equivalence: the interned/memoized table
    resolves every triple to exactly the interpreted distribution, with
    matching effectiveness.
``engines``
    Three-engine cross-check: all engines converge on the same
    instances, reach the target when one is declared, and their
    median convergence measures agree within a coarse band.  On a
    rotating subset of protocols (membership hashed from
    ``ks_seed``, which CI varies per run) the check escalates to a
    two-sample Kolmogorov–Smirnov test over ``ks_samples`` runs per
    engine pair — over many CI runs every protocol gets the
    distributional comparison without every run paying for it.
``stabilization``
    Runs stabilize within budget on every seed, the certificate is
    consistent with the final configuration, and an overridden
    ``target_reached`` holds on converged runs.
``faults``
    Structural invariants under injected faults: crashed nodes hold the
    DEAD sentinel and no active edges, the population grows by exactly
    the arrival count, and certificates stay exception-free over
    configurations containing DEAD nodes.
``adversarial``
    The adversarial-axis invariants: the notification hooks
    (``on_edge_loss`` / ``on_neighbor_crash``) map every declared state
    to ``None`` or a declared state; a byzantine-plus-crash plan on the
    indexed engine preserves the DEAD invariants (sentinel held, no
    active edges) even while the adversary lies about states; and the
    adaptive targeted scheduler runs the protocol through the
    sequential engine with an exception-free certificate at the end.
``scenario-matrix``
    A seeded rotating subset of the (scheduler x fault) scenario grid,
    each cell run on every engine whose ``supports()`` accepts it
    (others must resolve to the sequential reference).  Per cell the
    runs hold the structural fault invariants and an exception-free
    certificate; the count engine in particular must accept every
    census-safe uniform-scheduler cell.  Cell membership rotates with
    ``ks_seed`` so successive CI runs sweep the whole grid.
``static-lints``
    The rule-table lints of :func:`repro.verify.run_lints` (static —
    no engine in the loop): no unreachable states, dead or effectless
    rules, orientation conflicts, unused leader states, or missing
    fault-notification hooks, modulo the protocol's declared
    ``lint_waivers``.
``model-check``
    The symmetry-reduced exhaustive checker of
    :func:`repro.verify.model_check` at a small population: every
    terminal SCC of the canonical configuration graph satisfies the
    registered target predicate, the stabilization certificate is
    sound for output stability, and fault-claiming protocols recover
    from one adversarial edge deletion.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import os
import pkgutil
import statistics
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Iterable, Iterator

from repro.core.errors import ReproError
from repro.core.faults import DEAD
from repro.core.protocol import Protocol, resolve
from repro.core.scenario import Scenario, resolve_engine
from repro.core.simulator import ENGINES, make_engine
from repro.core.trace import Trace
from repro.protocols import registry


class ConformanceError(ReproError):
    """A conformance case could not be set up (not a check failure)."""


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one (protocol, check) cell."""

    protocol: str
    check: str
    passed: bool
    skipped: bool = False
    detail: str = ""

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class ConformanceSettings:
    """Knobs shared by every check (kept small so the registry-wide
    suite stays tier-1-fast; the heavyweight statistics live in the
    dedicated engine-equivalence tests)."""

    #: Seeds per engine/run-based check.
    seeds: int = 3
    #: Step budget for convergence runs (generous: the sequential engine
    #: walks every ineffective pick).
    budget: int = 5_000_000
    #: Step budget for under-fault runs (damaged runs may never settle).
    fault_budget: int = 60_000
    #: Cap on distinct states a structured protocol may visit at the
    #: conformance population before "finite closure" is doubted.
    state_cap: int = 20_000
    #: Multiplicative band for the cross-engine median comparison.
    band: float = 40.0
    #: Seed of the KS rotation (which protocols get the distributional
    #: engine comparison this run) and of the sampled runs themselves.
    #: Defaults from ``REPRO_CONFORMANCE_KS_SEED`` so CI can rotate the
    #: subset per run while any given run stays reproducible.
    ks_seed: int = field(
        default_factory=lambda: int(
            os.environ.get("REPRO_CONFORMANCE_KS_SEED", "0")
        )
    )
    #: Fraction of protocols in the KS rotation each run (membership is
    #: hashed from ``(ks_seed, spec)``, so over many seeds every
    #: protocol is covered).
    ks_fraction: float = 0.25
    #: Per-engine sample size for the two-sample KS test (small on
    #: purpose — with n=m=8 only gross distributional disagreement can
    #: clear the critical value, which is the right bar for a
    #: registry-wide smoke check).
    ks_samples: int = 8
    #: Significance level of the KS critical value.
    ks_alpha: float = 0.01
    #: Population sizes tried in order until the protocol accepts one.
    populations: tuple[int, ...] = (8, 12, 16, 9, 10, 4, 6, 7, 14, 15, 18, 20)
    #: Cap on canonical configurations explored per model-check cell.
    model_max_configs: int = 60_000
    #: (scheduler x fault) cells of the scenario matrix run per protocol
    #: per run; membership rotates with ``ks_seed`` so successive CI
    #: runs sweep the whole grid.
    matrix_cells: int = 3

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ConformanceError(
                f"seeds must be >= 1, got {self.seeds} (run-based checks "
                "would pass vacuously)"
            )
        if not self.populations:
            raise ConformanceError("populations must not be empty")
        if not 0.0 <= self.ks_fraction <= 1.0:
            raise ConformanceError(
                f"ks_fraction must be in [0, 1], got {self.ks_fraction}"
            )
        if self.ks_samples < 2:
            raise ConformanceError(
                f"ks_samples must be >= 2, got {self.ks_samples} "
                "(a KS test needs a sample on each side)"
            )
        if not 0.0 < self.ks_alpha < 1.0:
            raise ConformanceError(
                f"ks_alpha must be in (0, 1), got {self.ks_alpha}"
            )
        if self.matrix_cells < 1:
            raise ConformanceError(
                f"matrix_cells must be >= 1, got {self.matrix_cells} "
                "(the scenario matrix would be empty)"
            )


DEFAULT_SETTINGS = ConformanceSettings()


def _ok(spec: str, check: str, detail: str = "") -> CheckOutcome:
    return CheckOutcome(spec, check, True, detail=detail)


def _fail(spec: str, check: str, detail: str) -> CheckOutcome:
    return CheckOutcome(spec, check, False, detail=detail)


def _skip(spec: str, check: str, detail: str) -> CheckOutcome:
    return CheckOutcome(spec, check, True, skipped=True, detail=detail)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def conformance_population(
    protocol: Protocol, settings: ConformanceSettings = DEFAULT_SETTINGS
) -> int:
    """The first candidate population size the protocol accepts.

    Protocols declare size constraints by raising from
    ``initial_configuration`` (tape lengths, ``n = 2k`` layouts,
    ``|V2| >= |V1|`` …), so probing is the one size-picking rule that
    works registry-wide.
    """
    errors = []
    for n in settings.populations:
        try:
            protocol.initial_configuration(n)
        except ReproError as exc:
            errors.append(f"n={n}: {exc}")
            continue
        return n
    raise ConformanceError(
        f"{protocol.name} accepted no candidate population "
        f"{settings.populations}; last errors: {errors[-2:]}"
    )


def _traced_run(protocol, n, seed, settings, max_steps=None):
    trace = Trace()
    sim = make_engine("indexed", seed=seed)
    result = sim.run(
        protocol,
        n,
        settings.budget if max_steps is None else max_steps,
        trace=trace,
        require_convergence=False,
    )
    return result, trace


def _observed_triples(protocol, n, settings):
    """State triples ``(a, b, c)`` observed in one traced run, plus the
    pairwise triples of the initial configuration — the sample space for
    structured-state protocols whose ``Q`` is not enumerable."""
    config = protocol.initial_configuration(n)
    triples = set()
    initial_states = sorted({config.state(u) for u in range(n)}, key=repr)
    for a in initial_states:
        for b in initial_states:
            for c in (0, 1):
                triples.add((a, b, c))
    _, trace = _traced_run(protocol, n, 0, settings)
    for event in trace.events:
        triples.add((event.u_before, event.v_before, event.edge_before))
        triples.add((event.u_after, event.v_after, event.edge_after))
    return triples


def _validate_distribution(dist) -> str | None:
    """None when ``dist`` is a well-formed Distribution, else a
    complaint."""
    try:
        items = list(dist)
    except TypeError:
        return f"distribution is not iterable: {dist!r}"
    if not items:
        return "distribution is empty"
    total = 0.0
    for item in items:
        prob, outcome = item
        if prob <= 0:
            return f"non-positive probability {prob}"
        if outcome.edge not in (0, 1):
            return f"edge outcome {outcome.edge!r} not in (0, 1)"
        total += prob
    if abs(total - 1.0) > 1e-9:
        return f"probabilities sum to {total}, expected 1"
    return None


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_registry(protocol, spec, settings):
    """Registry record sanity: description, canonical stability, readback."""
    entry, params = registry.parse_spec(spec)
    if not entry.description:
        return _fail(spec, "registry", "entry has no description")
    canonical = registry.canonical_spec(spec)
    if registry.canonical_spec(canonical) != canonical:
        return _fail(spec, "registry", f"canonical spec {canonical!r} unstable")
    rebuilt = entry.instantiate(**params)
    if type(rebuilt) is not type(protocol):
        return _fail(
            spec, "registry",
            f"instantiate() type flapped: {type(rebuilt)} vs {type(protocol)}",
        )
    readback = registry.spec_for(protocol)
    if inspect.isclass(entry.factory) and readback != canonical:
        return _fail(
            spec, "registry",
            f"spec_for readback {readback!r} != canonical {canonical!r}",
        )
    return _ok(spec, "registry", canonical)


def check_state_closure(protocol, spec, settings):
    """Finite state-space closure (declared Q or bounded observation)."""
    if protocol.states is not None:
        declared = set(protocol.states)
        reached = {protocol.initial_state}
        while True:
            new = set()
            for a, b in product(reached, repeat=2):
                for c in (0, 1):
                    resolved = resolve(protocol, a, b, c)
                    if resolved is None:
                        continue
                    for _, out in resolved[0]:
                        new.update((out.a, out.b))
            if new <= reached:
                break
            reached |= new
        stray = reached - declared
        if stray:
            return _fail(
                spec, "state-closure",
                f"reachable states outside declared Q: "
                f"{sorted(map(repr, stray))}",
            )
        return _ok(
            spec, "state-closure",
            f"|Q|={len(declared)}, reachable={len(reached)}",
        )
    # Structured states: bound the states observed in a real run.
    n = conformance_population(protocol, settings)
    seen = set()
    config = protocol.initial_configuration(n)
    seen.update(config.state(u) for u in range(n))
    _, trace = _traced_run(protocol, n, 0, settings)
    for event in trace.events:
        seen.update(
            (event.u_before, event.u_after, event.v_before, event.v_after)
        )
    if len(seen) > settings.state_cap:
        return _fail(
            spec, "state-closure",
            f"{len(seen)} distinct states observed at n={n} "
            f"(cap {settings.state_cap}) — state space may be unbounded",
        )
    return _ok(spec, "state-closure", f"{len(seen)} states observed at n={n}")


def _triples_for(protocol, spec, settings):
    if protocol.states is not None:
        states = sorted(protocol.states, key=repr)
        return [
            (a, b, c)
            for a in states
            for b in states
            for c in (0, 1)
        ], "declared Q"
    n = conformance_population(protocol, settings)
    return sorted(_observed_triples(protocol, n, settings), key=repr), (
        f"observed at n={n}"
    )


def check_rule_table(protocol, spec, settings):
    """Rule-table totality and orientation symmetry of delta."""
    from repro.verify import dist_key

    triples, source = _triples_for(protocol, spec, settings)
    checked = 0
    for a, b, c in triples:
        try:
            forward = protocol.delta(a, b, c)
            backward = protocol.delta(b, a, c) if a != b else None
        except Exception as exc:  # totality: delta must never raise
            return _fail(
                spec, "rule-table",
                f"delta raised at ({a!r}, {b!r}, {c}): {exc}",
            )
        for dist in (forward, backward):
            if dist is None:
                continue
            complaint = _validate_distribution(dist)
            if complaint:
                return _fail(
                    spec, "rule-table",
                    f"bad distribution at ({a!r}, {b!r}, {c}): {complaint}",
                )
            checked += 1
        if forward is not None and backward is not None:
            if dist_key(forward, False) != dist_key(backward, True):
                return _fail(
                    spec, "rule-table",
                    f"orientations disagree at ({a!r}, {b!r}, {c})",
                )
    return _ok(
        spec, "rule-table",
        f"{len(triples)} triples ({source}), {checked} distributions",
    )


def check_compile(protocol, spec, settings):
    """Protocol.compile() matches the interpreted transition function."""
    triples, source = _triples_for(protocol, spec, settings)
    compiled = protocol.compile()
    for a, b, c in triples:
        raw = resolve(protocol, a, b, c)
        ia, ib = compiled.intern(a), compiled.intern(b)
        comp = compiled.resolved(ia, ib, c)
        if (raw is None) != (comp is None):
            return _fail(
                spec, "compile",
                f"resolution mismatch at ({a!r}, {b!r}, {c}): "
                f"interpreted={raw is not None}, compiled={comp is not None}",
            )
        if raw is not None:
            dist, swapped = raw
            cdist, cswapped = comp
            if swapped != cswapped:
                return _fail(
                    spec, "compile",
                    f"orientation flag mismatch at ({a!r}, {b!r}, {c})",
                )
            mapped = tuple(
                (prob, (compiled.intern(out.a), compiled.intern(out.b),
                        out.edge))
                for prob, out in dist
            )
            if mapped != cdist:
                return _fail(
                    spec, "compile",
                    f"distribution mismatch at ({a!r}, {b!r}, {c})",
                )
        if protocol.is_effective(a, b, c) != compiled.is_effective(ia, ib, c):
            return _fail(
                spec, "compile",
                f"effectiveness mismatch at ({a!r}, {b!r}, {c})",
            )
    return _ok(spec, "compile", f"{len(triples)} triples ({source})")


def ks_statistic(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic: the supremum distance
    between the samples' empirical CDFs (hand-rolled — stdlib only, and
    the inputs are tiny)."""
    import bisect

    xs, ys = sorted(xs), sorted(ys)
    if not xs or not ys:
        raise ConformanceError("KS statistic needs non-empty samples")
    return max(
        abs(
            bisect.bisect_right(xs, t) / len(xs)
            - bisect.bisect_right(ys, t) / len(ys)
        )
        for t in set(xs) | set(ys)
    )


def ks_threshold(n: int, m: int, alpha: float) -> float:
    """Critical value of the two-sample KS statistic at level ``alpha``
    (the classical large-sample approximation
    ``c(a) * sqrt((n + m) / (n * m))`` with
    ``c(a) = sqrt(-ln(a / 2) / 2)``)."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def in_ks_rotation(spec: str, settings: ConformanceSettings) -> bool:
    """Whether ``spec`` gets the distributional engine comparison this
    run: membership is a hash of ``(ks_seed, spec)``, so one run covers
    a ``ks_fraction`` slice of the registry and successive seeds rotate
    the slice over every protocol."""
    digest = hashlib.sha256(
        f"{settings.ks_seed}|{spec}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64 < settings.ks_fraction


def _ks_run_seed(ks_seed: int, spec: str, index: int) -> int:
    """Stable per-sample engine seed for a rotated protocol's KS runs."""
    digest = hashlib.sha256(
        f"{ks_seed}|{spec}|{index}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


def check_engines(protocol, spec, settings):
    """Engine cross-check: convergence, target, median band; sampled KS
    test on the rotating subset."""
    n = conformance_population(protocol, settings)
    targeted = _overrides_target(protocol)
    engines = sorted(ENGINES)
    certified = _overrides_stabilized(protocol)
    note = "" if certified else "; sequential stops on a quiescence scan"
    rotated = in_ks_rotation(spec, settings)
    if rotated:
        seeds = [
            _ks_run_seed(settings.ks_seed, spec, i)
            for i in range(settings.ks_samples)
        ]
    else:
        seeds = list(range(settings.seeds))
    samples: dict[str, list[int]] = {}
    for engine in engines:
        values = []
        for seed in seeds:
            fresh = registry.instantiate(spec)
            sim = make_engine(engine, seed=seed)
            # The sequential engine walks every pick and has no
            # effective-pair set, so it can only stop on a certificate;
            # a certificate-less (quiescence-only) protocol gets a
            # brute-force scan in its place.
            stop = None
            if engine == "sequential" and not certified:
                stop = _quiescence_scan(fresh)
            result = sim.run(
                fresh, n, settings.budget, stop=stop,
                require_convergence=False,
            )
            if not result.converged:
                return _fail(
                    spec, "engines",
                    f"{engine} engine did not converge at n={n}, "
                    f"seed={seed} within {settings.budget} steps",
                )
            if targeted and not fresh.target_reached(result.config):
                return _fail(
                    spec, "engines",
                    f"{engine} engine converged away from the target at "
                    f"n={n}, seed={seed}",
                )
            values.append(result.last_change_step)
        samples[engine] = values
    medians = {
        engine: statistics.median(values)
        for engine, values in samples.items()
    }
    low = max(min(medians.values()), 1.0)
    high = max(max(medians.values()), 1.0)
    if high > settings.band * low:
        return _fail(
            spec, "engines",
            f"median last-change steps disagree beyond {settings.band}x: "
            f"{medians}",
        )
    if rotated and len(engines) >= 2:
        threshold = ks_threshold(
            settings.ks_samples, settings.ks_samples, settings.ks_alpha
        )
        worst = 0.0
        for left, right in combinations(engines, 2):
            d = ks_statistic(samples[left], samples[right])
            worst = max(worst, d)
            if d > threshold:
                return _fail(
                    spec, "engines",
                    f"KS test rejects engine agreement: "
                    f"D({left}, {right}) = {d:.3f} > {threshold:.3f} "
                    f"(alpha={settings.ks_alpha}, "
                    f"{settings.ks_samples} samples, "
                    f"ks_seed={settings.ks_seed})",
                )
        note += (
            f"; KS over {settings.ks_samples} samples: "
            f"max D={worst:.3f} <= {threshold:.3f}"
        )
    return _ok(spec, "engines", f"n={n}, medians={medians}{note}")


def _quiescence_scan(protocol):
    """A stop predicate that holds when no pair of nodes is effective:
    O(n^2) per call, affordable at conformance populations."""

    def quiescent(config) -> bool:
        for u in range(config.n):
            su = config.state(u)
            for v in range(u + 1, config.n):
                if protocol.is_effective(su, config.state(v), config.edge_state(u, v)):
                    return False
        return True

    return quiescent


def _overrides_target(protocol) -> bool:
    return type(protocol).target_reached is not Protocol.target_reached


def _overrides_stabilized(protocol) -> bool:
    return type(protocol).stabilized is not Protocol.stabilized


def check_stabilization(protocol, spec, settings):
    """Runs stabilize within budget; certificates and targets hold."""
    n = conformance_population(protocol, settings)
    targeted = _overrides_target(protocol)
    certified = _overrides_stabilized(protocol)
    for seed in range(settings.seeds):
        fresh = registry.instantiate(spec)
        result, _ = _traced_run(fresh, n, seed, settings)
        if not result.converged:
            return _fail(
                spec, "stabilization",
                f"did not stabilize at n={n}, seed={seed} within "
                f"{settings.budget} steps ({result.stop_reason})",
            )
        if certified and result.stop_reason == "stabilized":
            if not fresh.stabilized(result.config):
                return _fail(
                    spec, "stabilization",
                    f"certificate does not hold on the final configuration "
                    f"(n={n}, seed={seed})",
                )
        if targeted and not fresh.target_reached(result.config):
            return _fail(
                spec, "stabilization",
                f"converged but target_reached is False (n={n}, "
                f"seed={seed}, stop={result.stop_reason})",
            )
    kind = "certificate" if certified else "quiescence"
    return _ok(
        spec, "stabilization",
        f"n={n}, {settings.seeds} seeds via {kind}"
        + (", target checked" if targeted else ""),
    )


def check_faults(protocol, spec, settings):
    """Structural invariants under crash and arrival faults."""
    n = conformance_population(protocol, settings)
    if n < 3:
        return _skip(spec, "faults", f"population n={n} too small to crash")
    crash = Scenario(faults=("crash:count=1,at=40",))
    sim = ENGINES["indexed"](seed=1, faults=crash.make_faults())
    result = sim.run(
        protocol, n, settings.fault_budget, require_convergence=False
    )
    config = result.config
    dead = [u for u in range(config.n) if config.state(u) == DEAD]
    if len(dead) != 1:
        return _fail(
            spec, "faults",
            f"crash:count=1 left {len(dead)} DEAD nodes at n={n}",
        )
    for u in dead:
        if config.neighbors(u):
            return _fail(
                spec, "faults",
                f"DEAD node {u} still holds active edges: "
                f"{sorted(config.neighbors(u))}",
            )
    # Certificates must tolerate DEAD sentinels (the engine polls them
    # throughout the run; call once more explicitly for the final state).
    protocol.stabilized(config)
    detail = f"crash ok at n={n} ({result.stop_reason})"
    if protocol.initial_state is not None:
        fresh = registry.instantiate(spec)
        arrive = Scenario(faults=("arrive:count=2,at=40",))
        sim = ENGINES["indexed"](seed=2, faults=arrive.make_faults())
        grown = sim.run(
            fresh, n, settings.fault_budget, require_convergence=False
        )
        if grown.config.n != n + 2:
            return _fail(
                spec, "faults",
                f"arrive:count=2 grew the population to {grown.config.n}, "
                f"expected {n + 2}",
            )
        detail += f"; arrivals ok ({n} -> {grown.config.n})"
    else:
        detail += "; arrivals skipped (no uniform initial state)"
    return _ok(spec, "faults", detail)


def check_adversarial(protocol, spec, settings):
    """Adversarial-axis invariants: hook contracts, byzantine DEAD
    invariants, and the adaptive targeted scheduler."""
    n = conformance_population(protocol, settings)
    if n < 3:
        return _skip(spec, "adversarial", f"population n={n} too small")
    # Closure of the declared state set: enumerable protocols must map
    # every declared state to None (no repair) or another declared
    # state — the engines write the return value back verbatim — and
    # nodes joining a run (arrive/recover) or a byzantine node claiming
    # leadership (always-leader) must enter a declared state too.  With
    # the rules closed over it, every state a run can intern is
    # interned at compile time, which is what lets runs share one
    # compiled table (see Protocol.compile).
    hook_note = "hooks unchecked (structured states)"
    if protocol.states is not None:
        declared = set(protocol.states)
        joins = [("initial_state", protocol.initial_state)] + [
            ("leader_states", state)
            for state in sorted(protocol.leader_states or (), key=repr)
        ]
        for attr, state in joins:
            if state is not None and state not in declared:
                return _fail(
                    spec, "adversarial",
                    f"{attr} holds {state!r}, which is not in the "
                    "declared state set",
                )
        for hook_name in ("on_edge_loss", "on_neighbor_crash"):
            hook = getattr(protocol, hook_name)
            for state in sorted(declared, key=repr):
                replacement = hook(state)
                if replacement is not None and replacement not in declared:
                    return _fail(
                        spec, "adversarial",
                        f"{hook_name}({state!r}) returned {replacement!r}, "
                        "which is not in the declared state set",
                    )
        hook_note = f"hooks, joins and claims closed over |Q|={len(declared)}"
    # Byzantine lies + a crash on the indexed engine: the structural
    # DEAD invariants may not bend even while states are corrupted.
    byz = Scenario(
        faults=("byzantine:count=1,mode=replay", "crash:count=1,at=40")
    )
    sim = ENGINES["indexed"](seed=3, faults=byz.make_faults())
    result = sim.run(
        protocol, n, settings.fault_budget, require_convergence=False
    )
    config = result.config
    dead = [u for u in range(config.n) if config.state(u) == DEAD]
    if len(dead) != 1:
        return _fail(
            spec, "adversarial",
            f"byzantine+crash left {len(dead)} DEAD nodes at n={n}, "
            "expected exactly 1",
        )
    if config.neighbors(dead[0]):
        return _fail(
            spec, "adversarial",
            f"DEAD node {dead[0]} still holds active edges under a "
            f"byzantine plan: {sorted(config.neighbors(dead[0]))}",
        )
    protocol.stabilized(config)  # exception-free over corrupted runs
    # Adaptive targeted scheduler: only the sequential engine supports
    # it; the run and the final certificate must be exception-free.
    targeted = Scenario(scheduler="targeted:aim=leader")
    fresh = registry.instantiate(spec)
    sim = make_engine("sequential", 4, targeted)
    starved = sim.run(
        fresh, n, settings.fault_budget, require_convergence=False
    )
    fresh.stabilized(starved.config)
    return _ok(
        spec, "adversarial",
        f"n={n}, {hook_note}; byzantine DEAD invariants ok; "
        f"targeted run ok ({starved.stop_reason})",
    )


#: Scheduler axis of the scenario matrix (specs from
#: :data:`repro.core.scheduler.SCHEDULERS`); kept tiny per run — the
#: seeded rotation sweeps the full grid across CI runs.
MATRIX_SCHEDULERS: tuple[str, ...] = (
    "uniform",
    "round-robin",
    "laggard:lagged=0..1",
    "targeted:aim=leader",
)

#: Fault axis of the scenario matrix.
MATRIX_FAULTS: tuple[tuple[str, ...], ...] = (
    (),
    ("crash:count=1,at=40",),
    ("arrive:count=2,at=40",),
)


def _matrix_rank(settings: ConformanceSettings, spec: str, cell: str) -> int:
    """Stable rotation rank of one scenario-matrix cell (lower runs
    first); varies with ``ks_seed`` like the KS rotation."""
    digest = hashlib.sha256(
        f"{settings.ks_seed}|{spec}|matrix|{cell}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def check_scenario_matrix(protocol, spec, settings):
    """Scenario-matrix axis: a seeded rotating (scheduler x fault)
    subset of cells, each run on every engine whose ``supports()``
    accepts the scenario (non-supporting engines must resolve to the
    ``sequential`` reference, never run silently).  Each run holds the
    structural obligations of the other checks: it finishes inside the
    fault budget, crash victims hold the DEAD sentinel with no active
    edges, arrivals grow the population by exactly their count, and the
    certificate is exception-free over the final configuration."""
    n = conformance_population(protocol, settings)
    if n < 3:
        return _skip(spec, "scenario-matrix", f"population n={n} too small")
    cells = sorted(
        product(MATRIX_SCHEDULERS, MATRIX_FAULTS),
        key=lambda cell: _matrix_rank(settings, spec, repr(cell)),
    )[: settings.matrix_cells]
    ran = []
    for scheduler, faults in cells:
        if faults and faults[0].startswith("arrive") and (
            protocol.initial_state is None
        ):
            # Arrivals join in the protocol's uniform initial state;
            # scripted-initial protocols have none to join in.
            faults = ()
        scenario = Scenario(scheduler=scheduler, faults=faults)
        supporting = [
            name for name in sorted(ENGINES)
            if ENGINES[name].supports(scenario)
        ]
        if not supporting:
            return _fail(
                spec, "scenario-matrix",
                f"no engine supports ({scenario.describe()})",
            )
        for name in sorted(ENGINES):
            resolved = resolve_engine(name, scenario, warn=False)
            if resolved != name and resolved not in supporting:
                return _fail(
                    spec, "scenario-matrix",
                    f"engine {name!r} resolved to non-supporting "
                    f"{resolved!r} for ({scenario.describe()})",
                )
        if scenario.uses_uniform_scheduler and "count" not in supporting:
            return _fail(
                spec, "scenario-matrix",
                "the count engine must support every census-safe uniform "
                f"scenario, but declined ({scenario.describe()})",
            )
        for engine in supporting:
            seed = _matrix_rank(settings, spec, f"{scenario.describe()}|{engine}") % 2**16
            fresh = registry.instantiate(spec)
            sim = make_engine(engine, seed, scenario)
            result = sim.run(
                fresh, n, settings.fault_budget, require_convergence=False
            )
            config = result.config
            dead = [u for u in range(config.n) if config.state(u) == DEAD]
            if faults and faults[0].startswith("crash"):
                if len(dead) != 1:
                    return _fail(
                        spec, "scenario-matrix",
                        f"{engine} under ({scenario.describe()}): "
                        f"{len(dead)} DEAD nodes, expected 1",
                    )
                if any(config.neighbors(u) for u in dead):
                    return _fail(
                        spec, "scenario-matrix",
                        f"{engine} under ({scenario.describe()}): DEAD "
                        "node holds active edges",
                    )
            if faults and faults[0].startswith("arrive"):
                if config.n != n + 2:
                    return _fail(
                        spec, "scenario-matrix",
                        f"{engine} under ({scenario.describe()}): "
                        f"population {config.n}, expected {n + 2}",
                    )
            # Certificates must stay exception-free whatever the cell did.
            fresh.stabilized(config)
        ran.append(f"({scenario.describe()}) x {len(supporting)} engines")
    return _ok(spec, "scenario-matrix", f"n={n}: " + "; ".join(ran))


def check_static_lints(protocol, spec, settings):
    """Rule-table lints over the reachable state abstraction — the
    static layer's obligations (see :mod:`repro.verify.lints`)."""
    # Imported lazily: repro.verify resolves targets through the
    # registry, which this module also imports at load time.
    from repro.verify import VerifyError, run_lints

    if protocol.states is None:
        return _skip(
            spec, "static-lints", "structured state space (states=None)"
        )
    try:
        report = run_lints(protocol)
    except VerifyError as exc:
        return _skip(spec, "static-lints", str(exc))
    if not report.ok:
        return _fail(spec, "static-lints", report.summary())
    note = (
        f"clean: reachable={len(report.abstraction.states)}"
        f"/{report.declared_states}, "
        f"enabled rules={len(report.abstraction.enabled)}"
    )
    if report.waived:
        note += f", waived={len(report.waived)}"
    return _ok(spec, "static-lints", note)


def check_model_check(protocol, spec, settings):
    """Exhaustive symmetry-reduced model check at the smallest accepted
    population (see :mod:`repro.verify.model`)."""
    from repro.verify import (
        MODEL_POPULATIONS, VerifyError, model_check, model_population,
    )

    if protocol.states is None:
        return _skip(
            spec, "model-check", "structured state space (states=None)"
        )
    n = model_population(protocol)
    if n is None:
        return _skip(
            spec, "model-check",
            f"no accepted population in {MODEL_POPULATIONS}",
        )
    try:
        report = model_check(
            protocol, n, max_configs=settings.model_max_configs
        )
    except VerifyError as exc:
        return _skip(spec, "model-check", str(exc))
    if not report.ok:
        return _fail(spec, "model-check", report.summary())
    return _ok(
        spec, "model-check",
        f"n={n}: {report.n_configs} canonical configs, "
        f"{report.n_terminal_sccs} terminal SCC(s), "
        f"checked={'+'.join(report.checked)}",
    )


#: check name -> callable(protocol, spec, settings) -> CheckOutcome.
CHECKS: dict[str, Callable] = {
    "registry": check_registry,
    "state-closure": check_state_closure,
    "rule-table": check_rule_table,
    "compile": check_compile,
    "engines": check_engines,
    "stabilization": check_stabilization,
    "faults": check_faults,
    "adversarial": check_adversarial,
    "scenario-matrix": check_scenario_matrix,
    "static-lints": check_static_lints,
    "model-check": check_model_check,
}


# ----------------------------------------------------------------------
# Case collection and execution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConformanceCase:
    """One (protocol spec, check) cell, lazily executed."""

    spec: str
    check: str
    settings: ConformanceSettings = DEFAULT_SETTINGS

    @property
    def id(self) -> str:
        return f"{self.spec}-{self.check}"

    def run(self) -> CheckOutcome:
        try:
            protocol = registry.instantiate(self.spec)
            return CHECKS[self.check](protocol, self.spec, self.settings)
        except ConformanceError as exc:
            return _skip(self.spec, self.check, str(exc))
        except Exception as exc:
            # An unexpected exception is exactly what several checks
            # probe for (e.g. certificates over DEAD sentinels); record
            # a FAIL for this cell instead of killing the whole grid.
            return _fail(
                self.spec, self.check,
                f"check raised {type(exc).__name__}: {exc}",
            )


def conformance_specs() -> list[str]:
    """Canonical default spec of every registered protocol."""
    return [registry.canonical_spec(entry.name) for entry in registry.available()]


def conformance_cases(
    specs: Iterable[str] | None = None,
    checks: Iterable[str] | None = None,
    settings: ConformanceSettings = DEFAULT_SETTINGS,
) -> list[ConformanceCase]:
    """The (protocol x check) grid, protocols outermost."""
    if specs is None:
        resolved_specs = conformance_specs()
    else:
        resolved_specs = [registry.canonical_spec(spec) for spec in specs]
    if checks is None:
        names = list(CHECKS)
    else:
        names = list(checks)
        unknown = [name for name in names if name not in CHECKS]
        if unknown:
            raise ConformanceError(
                f"unknown check(s) {unknown}; choose from {sorted(CHECKS)}"
            )
    return [
        ConformanceCase(spec, check, settings)
        for spec in resolved_specs
        for check in names
    ]


def run_conformance(
    specs: Iterable[str] | None = None,
    checks: Iterable[str] | None = None,
    settings: ConformanceSettings = DEFAULT_SETTINGS,
) -> list[CheckOutcome]:
    """Execute the grid; never raises on check failures (read the
    outcomes)."""
    return [case.run() for case in conformance_cases(specs, checks, settings)]


def format_outcomes(outcomes: Iterable[CheckOutcome]) -> str:
    """Fixed-width report table (the ``repro-net conformance`` output)."""
    outcomes = list(outcomes)
    width = max((len(o.protocol) for o in outcomes), default=8)
    cwidth = max((len(o.check) for o in outcomes), default=5)
    lines = [
        f"{'protocol':<{width}}  {'check':<{cwidth}}  result  detail"
    ]
    for o in outcomes:
        lines.append(
            f"{o.protocol:<{width}}  {o.check:<{cwidth}}  {o.status:<6}  "
            f"{o.detail}"
        )
    failed = sum(1 for o in outcomes if not o.passed and not o.skipped)
    skipped = sum(1 for o in outcomes if o.skipped)
    lines.append(
        f"\n{len(outcomes)} cells: {len(outcomes) - failed - skipped} "
        f"passed, {failed} failed, {skipped} skipped"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Coverage helpers (the "no silent registry gaps" satellite)
# ----------------------------------------------------------------------

def iter_protocol_classes() -> Iterator[type]:
    """Every concrete :class:`Protocol` subclass defined under
    ``repro`` (abstract bases excluded), discovered by importing all
    submodules — the input to the registry-reachability test."""
    import repro

    bases = {Protocol}
    from repro.core.protocol import TableProtocol

    bases.add(TableProtocol)
    seen: set[type] = set()
    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        module = importlib.import_module(module_info.name)
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(obj, Protocol)
                and obj not in bases
                and obj.__module__.startswith("repro.")
                and obj not in seen
            ):
                seen.add(obj)
                yield obj


def registered_protocol_classes() -> set[type]:
    """Concrete classes reachable through the registry (instantiating
    every entry with its default parameters)."""
    return {type(entry.instantiate()) for entry in registry.available()}
