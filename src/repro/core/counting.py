"""Count-based census engine with tau-leaped batched stepping.

Every protocol in the source paper is *anonymous* — node identity never
enters a rule — so the paper's own analysis reasons over the state
census, not per-node states.  Where no edge can ever form, the census
is the whole state of a run, and :class:`CountSimulator` exploits this:
it represents the run as ``(state -> count)`` (O(present states)
hot-path memory, not O(n)), and between fault events it draws
multinomial interaction *counts* per pair class in one batch
(tau-leaping, Gillespie-style) instead of one Python iteration per
effective interaction.  Only a run's start, when the protocol scripts
one, and its result are per-node: each is a
:class:`~repro.core.configuration.Configuration`, two O(n) lists
(states and adjacency) with no per-node index.

Two regimes, one run loop
-------------------------
Both regimes run through the loop every engine shares
(:meth:`repro.core.simulator._ExactEngine.run`: the clock, the fault
plan, the horizon gate, the budget and the certificate poll); they
differ in the *walk* :meth:`CountSimulator._walk` hands it.

* **Leap regime**: a *census walk*, census-only stepping whose every
  ``advance`` is one leap.  A run leaps only when all of these hold:

  - ``n >= leap_threshold``;
  - no rule between two declared states activates an edge
    (:attr:`~repro.core.protocol.CompiledProtocol.edge_free`) and the
    start holds no active edge, so no edge ever forms.  Five registered
    tables qualify: the one-way epidemic, one-to-one and one-to-all
    elimination, node cover and meet-everybody;
  - no trace is attached (a bus is fine), and every fault model is a
    crash, churn, arrival or recovery;
  - the stabilization certificate reads only the census: it answers on
    a :class:`~repro.core.configuration.CensusView` without raising
    ``AttributeError``.

  Each leap picks a firing budget ``K`` by the standard tau-leap drift
  bound (expected relative change of any state count at most
  ``LEAP_EPSILON``), draws per-class firing counts
  ``Multinomial(K, w/W)``, advances the scheduler clock by ``K`` plus a
  negative-binomial count of ineffective picks (the batched form of the
  indexed engine's ``Geometric(k/m)`` skip), and applies the aggregate
  census deltas.  The leap regime is an *approximate* sampler of the
  interaction process: each leap advances the clock at the total weight
  frozen at its start while the batch grows, so the one-way epidemic's
  mean stabilization time overshoots the closed form (n-1)H(n-1) —
  measured +16.0% at n = 2000 (z = 17.7) and +17.1% at n = 3*10^4
  (z = 24.3), 200 seeds each with ``leap_threshold=0``.  ROADMAP.md
  ("Replace the tau-leap with an exact census sampler") tracks the
  fix.  Leaps shrink to single firings near fault horizons and the
  loop polls the stabilization certificate after every leap, so runs
  stop on the same certificate as the exact engines.  A leap whose
  firings were all identity outcomes moves the clock and changes
  nothing.  With a ``bus`` attached, the census walk publishes a
  sampled census frame at most once per alive-population steps, and
  the last one with the result.

* **Exact regime** (every other run): the walk *is* the state-indexed
  engine's — :class:`CountSimulator` subclasses
  :class:`~repro.core.simulator.IndexedSimulator`, so the distribution
  (and the rng stream) is identical by construction.  This is the
  regime the KS/CI-band equivalence harness gates, and the one every
  table that builds edges runs in.

The census walk applies faults census-wise: ``crash`` / ``churn``
victims are drawn by one multivariate-hypergeometric state selection
(:func:`repro.core.faults.census_sample_states`; a victim holds no
edge, so no neighbour is notified), and ``arrive`` / ``revive`` add
initial-state counts.  Identity-based faults (``cut``, ``byzantine``)
and scripted initial configurations (``doped:``, ``graph:``) are
declined by :meth:`CountSimulator.supports`, so scenario routing falls
back to an identity-aware engine.

The batched draws come from numpy's seeded generator (numpy is a
dependency of scipy and of :mod:`repro.analysis.fitting`), so a seeded
leap run is a deterministic function of the engine seed.  numpy is
imported on the first leap run, not with the engines.
"""

from __future__ import annotations

from repro.core.configuration import Census, CensusView, Configuration
from repro.core.errors import SimulationError
from repro.core.protocol import Protocol
from repro.core.faults import (
    DEAD,
    ArrivalFaults,
    ChurnFaults,
    CrashFaults,
    RecoverFaults,
    census_sample_states,
    join_state,
)
from repro.core.simulator import (
    _APPLIED,
    _APPLIED_OUTPUT,
    _AT_BUDGET,
    _AT_FAULT,
    _IDLE,
    _MOVED,
    ENGINES,
    IndexedSimulator,
    _ExactEngine,
    _Walk,
)
from repro.core.trace import CensusFrame, TraceBus

#: Fault spec names whose semantics name concrete node/edge identities;
#: anonymity-aware routing declines them (see :meth:`CountSimulator.supports`).
IDENTITY_FAULTS = frozenset({"cut", "byzantine"})

#: Initial-configuration spec names that script concrete node ids.
IDENTITY_INITS = frozenset({"doped", "graph"})

#: Fault model classes whose actions are census-representable; any other
#: model routes the whole run through the exact indexed path.
_LEAPABLE_FAULTS = (CrashFaults, ArrivalFaults, RecoverFaults, ChurnFaults)


class _NumpyLeapRng:
    """numpy-backed batch sampler (one vectorized draw per leap)."""

    __slots__ = ("_rng",)

    def __init__(self, seed: int | None, np_random) -> None:
        self._rng = np_random.default_rng(seed)

    def randrange(self, n: int) -> int:
        return int(self._rng.integers(n))

    def multinomial(self, k: int, weights: list[float]) -> list[int]:
        total = float(sum(weights))
        return [int(x) for x in self._rng.multinomial(k, [w / total for w in weights])]

    def geometric_failures(self, k: int, p: float) -> int:
        if p >= 1.0:
            return 0
        return int(self._rng.negative_binomial(k, p))


def make_leap_rng(seed: int | None) -> _NumpyLeapRng:
    """The seeded batched-draw sampler.  numpy is imported here, on the
    first leap run, so importing the engines does not pay for it."""
    from numpy import random as np_random

    return _NumpyLeapRng(seed, np_random)


def _no_edges() -> int:
    """The active-edge count of a census walk: no edge ever forms."""
    return 0


class _PlanFacade:
    """Synthetic id space for fault-plan queries in the leap regime:
    ids ``0..alive-1`` are alive, ``alive..alive+dead-1`` are DEAD.  The
    census-safe plans only ever sample uniformly from these pools, so
    the synthetic ids carry exactly the information the census has."""

    __slots__ = ("_alive", "_dead")

    def __init__(self, alive: int, dead: int) -> None:
        self._alive = alive
        self._dead = dead

    @property
    def n(self) -> int:
        return self._alive + self._dead

    def state(self, u: int):
        return DEAD if u >= self._alive else "__alive__"


class CountSimulator(IndexedSimulator):
    """Anonymous count-based engine: census-only tau-leaped stepping for
    a run on an edge-free table at or above ``leap_threshold``, the
    exact state-indexed walk for every other run (see the module
    docstring for the eligibility rule and the leap's bias).

    Parameters
    ----------
    seed, faults:
        As for every engine.
    leap_threshold:
        Population size from which an eligible run leaps; below it every
        run takes the (distributionally exact) indexed walk.  ``None``
        uses :data:`DEFAULT_LEAP_THRESHOLD`.
    """

    #: Below this population the exact indexed walk runs; from it on an
    #: eligible run takes the census leap regime.
    DEFAULT_LEAP_THRESHOLD = 4096

    #: Tau-leap drift bound: a leap's firing budget keeps the expected
    #: relative change of every state count below this fraction.
    LEAP_EPSILON = 0.1

    #: Hard cap on firings per leap.
    MAX_LEAP = 1 << 20

    #: Registry name, stamped into :class:`~repro.core.trace.RunMeta`.
    engine_name = "count"

    # Defined in this class body (not only inherited) so tooling can
    # wrap the count engine's run alone, e.g. to time it.
    run = _ExactEngine.run

    def __init__(
        self,
        seed: int | None = None,
        faults: tuple = (),
        *,
        leap_threshold: int | None = None,
    ) -> None:
        super().__init__(seed, faults)
        self.leap_threshold = (
            self.DEFAULT_LEAP_THRESHOLD if leap_threshold is None else leap_threshold
        )
        #: Optional observer called as ``(steps, counts, ends, k)`` after
        #: every applied leap: the state counts keyed by interned ids and
        #: the leap's firing budget ``k``.  ``ends`` is always an empty
        #: dict, since no edge forms in a census walk; it stays in the
        #: call because hooks take four arguments, the census-count hook
        #: of ``perfbench/workloads.py`` among them.  Used by the test
        #: harness and handy for ad-hoc inspection; None in production.
        self.leap_hook = None

    @classmethod
    def supports(cls, scenario) -> bool:
        """Anonymity-aware routing: uniform random scheduler only (like
        every event-driven engine), and no scenario axis that names
        concrete node or edge identities — identity-based faults
        (``cut``, ``byzantine``) and scripted initial configurations
        (``doped:``, ``graph:``) are declined."""
        if not scenario.uses_uniform_scheduler:
            return False
        for spec in scenario.faults:
            if str(spec).split(":", 1)[0] in IDENTITY_FAULTS:
                return False
        init = str(scenario.init)
        if init and init.split(":", 1)[0] in IDENTITY_INITS:
            return False
        return True

    # ------------------------------------------------------------------
    # Regime selection
    # ------------------------------------------------------------------
    def _walk(
        self, protocol, n, config, copy_config, publish, stabilized, max_steps
    ) -> _Walk:
        # A trace (per-event storage) disqualifies leaping; a bus does
        # not — the census walk streams sampled census frames instead,
        # so observability composes with tau-leaping.
        if (
            n >= self.leap_threshold
            and (publish is None or isinstance(publish, TraceBus))
            and all(isinstance(f, _LEAPABLE_FAULTS) for f in self.faults)
        ):
            walk = self._census_walk(protocol, n, config, publish, stabilized)
            if walk is not None:
                return walk
        return super()._walk(
            protocol, n, config, copy_config, publish, stabilized, max_steps
        )

    # ------------------------------------------------------------------
    # Leap regime
    # ------------------------------------------------------------------
    def _census_walk(
        self, protocol, n: int, config: Configuration | None, publish, stabilized,
    ) -> _Walk | None:
        """The leap regime as a walk of the shared run loop: each
        ``advance`` takes one leap.  ``None`` when the table is not
        :attr:`~repro.core.protocol.CompiledProtocol.edge_free`, the
        start holds an active edge, or the stabilization certificate
        needs more than the census."""
        compiled = protocol.compile()
        if not compiled.edge_free:
            return None
        intern = compiled.intern
        state_of = compiled.state_of
        is_effective = compiled.is_effective
        resolved = compiled.resolved

        # Census keyed by interned state ids; DEAD tracked separately
        # (every node starts alive).
        if config is None and (
            type(protocol).initial_configuration
            is Protocol.initial_configuration
        ):
            # The model's canonical start: all n nodes in initial_state,
            # no edges — O(1), which is what makes n = 10^6 cheap.
            counts = {intern(protocol.initial_state): n}
        else:
            # Non-uniform protocol-defined start (seeded epidemics, tape
            # layouts): materialize once and keep only its census.
            cen = (
                config if config is not None
                else protocol.initial_configuration(n)
            ).census()
            if cen.edges:
                return None
            counts = {intern(s): c for s, c in cen.counts.items()}
        alive = sum(counts.values())
        dead_count = 0

        def raw_census() -> dict:
            raw = {state_of(s): c for s, c in counts.items() if c > 0}
            if dead_count:
                raw[DEAD] = dead_count
            return raw

        # Probe the certificate: if it needs per-node structure, the
        # indexed walk runs instead.  Probing first also keeps the bus
        # quiet until the leap regime is committed.
        try:
            bool(stabilized(CensusView(raw_census(), _no_edges)))
        except AttributeError:
            return None

        leap = make_leap_rng(self.seed)

        def materialize() -> Configuration:
            """A census-faithful :class:`Configuration`, laid out by
            :meth:`Configuration.from_census`."""
            return Configuration.from_census(Census(raw_census(), {}))

        def certificate() -> bool:
            try:
                return bool(stabilized(CensusView(raw_census(), _no_edges)))
            except AttributeError:
                # Worked at step 0 but needs structure now: materialize a
                # census-faithful configuration and ask the real question.
                return bool(stabilized(materialize()))

        effective = 0
        last_census_step = -1

        def emit_census(step: int, force: bool = False) -> None:
            """Publish a sampled census frame: at most one per ``alive``
            steps, plus the forced frame at termination."""
            nonlocal last_census_step
            if step == last_census_step:
                return  # already published for this step
            if not force and step - last_census_step < max(1, alive):
                return
            last_census_step = step
            publish.census(CensusFrame(step, raw_census(), 0, effective))

        def final(steps: int) -> Configuration:
            if publish is not None:
                emit_census(steps, force=True)
            return materialize()

        def pairs(a: int, b: int) -> int:
            na = counts.get(a, 0)
            if a == b:
                return na * (na - 1) // 2
            return na * counts.get(b, 0)

        out_states = protocol.output_states

        def faults(plan, at: int) -> tuple[str, ...]:
            """Apply the plan's actions at ``at`` census-wise: the plan
            sees the synthetic ids of :class:`_PlanFacade`, and a crash
            is one hypergeometric draw of the victims' states."""
            nonlocal alive, dead_count
            changed = False
            kinds: list[str] = []
            facade = _PlanFacade(alive, dead_count)
            for action in plan.actions_at(at, facade, range(alive)):
                kinds.append(action.kind)
                if action.kind == "crash":
                    k = min(len(action.nodes), alive)
                    if k <= 0:
                        continue
                    for s, c in census_sample_states(counts, k, leap).items():
                        left = counts[s] - c
                        if left:
                            counts[s] = left
                        else:
                            del counts[s]
                    alive -= k
                    dead_count += k
                    changed = True
                elif action.kind == "arrive":
                    join = intern(join_state(protocol))
                    counts[join] = counts.get(join, 0) + action.count
                    alive += action.count
                    changed = True
                elif action.kind == "revive":
                    k = min(len(action.nodes), dead_count)
                    if k <= 0:
                        continue
                    join = intern(join_state(protocol))
                    counts[join] = counts.get(join, 0) + k
                    dead_count -= k
                    alive += k
                    changed = True
                else:  # pragma: no cover - eligibility excludes cut/corrupt
                    raise SimulationError(
                        f"fault kind {action.kind!r} is not census-representable"
                    )
            return tuple(kinds) if changed else ()

        def class_weights() -> list[tuple[tuple[int, int, int], float]]:
            present = [s for s, c in counts.items() if c > 0]
            out: list[tuple[tuple[int, int, int], float]] = []
            for i, a in enumerate(present):
                for b in present[i:]:
                    p_ab = pairs(a, b)
                    if p_ab > 0 and is_effective(a, b, 0):
                        out.append(((min(a, b), max(a, b), 0), float(p_ab)))
            return out

        def choose_k(ws, total_weight: float, prev: int) -> int:
            drift: dict[int, float] = {}
            for (a, b, c), w in ws:
                share = w / total_weight
                dist, swapped = resolved(a, b, c)
                for prob, (o1, o2, _e2) in dist:
                    new_a, new_b = (o2, o1) if swapped else (o1, o2)
                    pf = share * prob
                    for old, new in ((a, new_a), (b, new_b)):
                        if new != old:
                            drift[old] = drift.get(old, 0.0) - pf
                            drift[new] = drift.get(new, 0.0) + pf
            cap = self.MAX_LEAP
            for s, d in drift.items():
                if d < 0.0:
                    avail = counts.get(s, 0)
                    cap = min(cap, max(1, int(self.LEAP_EPSILON * avail / -d)))
            return max(1, min(cap, 2 * prev + 1))

        def apply_class(a: int, b: int, k: int) -> tuple[int, bool]:
            """Apply ``k`` firings of the non-edge class ``(a, b, 0)`` to
            the census.  Returns ``(non-identity firings, output graph
            affected)``."""
            dist, swapped = resolved(a, b, 0)
            if len(dist) == 1:
                split = [k]
            else:
                split = leap.multinomial(k, [p for p, _ in dist])
            changed = 0
            out_changed = False
            for (_prob, (o1, o2, _e2)), ko in zip(dist, split):
                if ko <= 0:
                    continue
                new_a, new_b = (o2, o1) if swapped else (o1, o2)
                if new_a == a and new_b == b:
                    continue  # identity outcome of a probabilistic rule
                changed += ko
                if new_a != a:
                    counts[a] = counts.get(a, 0) - ko
                    counts[new_a] = counts.get(new_a, 0) + ko
                if new_b != b:
                    counts[b] = counts.get(b, 0) - ko
                    counts[new_b] = counts.get(new_b, 0) + ko
                if out_states is not None:
                    for old, new in ((a, new_a), (b, new_b)):
                        if (state_of(old) in out_states) != (state_of(new) in out_states):
                            out_changed = True
                            break
            return changed, out_changed

        prev_k = 0
        k_ceiling = self.MAX_LEAP

        def advance(steps, fault_next, max_steps):
            """One leap: a firing budget ``K`` from the drift bound,
            halved until its clock advance stays before the next fault
            and within the budget, split multinomially over the
            effective classes, and retried smaller on an overshoot."""
            nonlocal effective, prev_k, k_ceiling
            while True:
                ws = class_weights()
                total_weight = sum(w for _, w in ws)
                if total_weight <= 0.0:
                    return steps, _IDLE, 0, 0, 0
                m = alive * (alive - 1) // 2
                k = min(choose_k(ws, total_weight, prev_k), k_ceiling)
                k_ceiling = self.MAX_LEAP
                while True:
                    elapsed = k + leap.geometric_failures(k, total_weight / m)
                    if fault_next is not None and steps + elapsed > fault_next:
                        if k > 1:
                            k = k // 2
                            continue
                        # The single firing lands past the fault; the skip
                        # is memoryless, so jump the clock to the fault and
                        # redraw.
                        if max_steps is not None and fault_next > max_steps:
                            return max_steps, _AT_BUDGET, 0, 0, 0
                        return fault_next, _AT_FAULT, 0, 0, 0
                    if max_steps is not None and steps + elapsed > max_steps:
                        if k > 1:
                            k = k // 2
                            continue
                        return max_steps, _AT_BUDGET, 0, 0, 0
                    break
                split = leap.multinomial(k, [w for _, w in ws])
                snapshot = dict(counts)
                changed = 0
                out_any = False
                for ((a, b, _c), _w), kc in zip(ws, split):
                    if kc > 0:
                        ch, oc = apply_class(a, b, kc)
                        changed += ch
                        out_any = out_any or oc
                if any(v < 0 for v in counts.values()):
                    # Tau-leap overshoot: restore and retry with a smaller
                    # leap.
                    counts.clear()
                    counts.update(snapshot)
                    k_ceiling = max(1, k // 2)
                    prev_k = 0
                    continue
                for s in [s for s, c in counts.items() if c == 0]:
                    del counts[s]
                steps += elapsed
                effective += changed
                prev_k = k
                if self.leap_hook is not None:
                    self.leap_hook(steps, counts, {}, k)
                if publish is not None:
                    emit_census(steps)
                if out_any:
                    return steps, _APPLIED_OUTPUT, changed, 0, 0
                return steps, _APPLIED if changed else _MOVED, changed, 0, 0

        return _Walk(advance, faults, certificate, raw_census, _no_edges, final)


#: Register the engine.  ``simulator`` imports this module at the end of
#: its own body (and this module imports ``simulator``), so registration
#: happens exactly once whichever module is imported first.
ENGINES["count"] = CountSimulator
