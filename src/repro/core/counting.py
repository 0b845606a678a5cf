"""Count-based census engine with tau-leaped batched stepping.

Every protocol in the source paper is *anonymous* — node identity never
enters a rule — so the paper's own analysis reasons over the state
census, not per-node states.  :class:`CountSimulator` exploits this: it
represents a run as ``(state -> count)`` plus the per-class active-edge
census (O(present states) hot-path memory, not O(n)), and between
structural/fault events it draws multinomial interaction *counts* per
pair class in one batch (tau-leaping, Gillespie-style) instead of one
Python iteration per effective interaction.  Only a run's start, when
the protocol scripts one, and its result are per-node: each is a
:class:`~repro.core.configuration.Configuration`, two O(n) lists
(states and adjacency) with no per-node index.

Two regimes, one run loop
-------------------------
Both regimes run through the loop every engine shares
(:meth:`repro.core.simulator._ExactEngine.run`: the clock, the fault
plan, the horizon gate, the budget and the certificate poll); they
differ in the *walk* :meth:`CountSimulator._walk` hands it.

* **Exact regime** (``n < leap_threshold``, or whenever the run needs
  per-node structure: traces, identity-based faults such as ``cut`` /
  ``byzantine``, or a stabilization certificate that inspects graph
  geometry): the walk *is* the state-indexed engine's —
  :class:`CountSimulator` subclasses
  :class:`~repro.core.simulator.IndexedSimulator`, so the distribution
  (and the rng stream) is identical by construction.  This is the
  regime the KS/CI-band equivalence harness gates.

* **Leap regime** (large ``n``): a *census walk*, census-only stepping
  whose every ``advance`` is one leap.  Each leap picks
  a firing budget ``K`` by the standard tau-leap drift bound (expected
  relative change of any state count at most ``LEAP_EPSILON``), draws
  per-class firing counts ``Multinomial(K, w/W)``, advances the
  scheduler clock by ``K`` plus a negative-binomial count of
  ineffective picks (the batched form of the indexed engine's
  ``Geometric(k/m)`` skip), and applies the aggregate census deltas.
  The active-edge structure is closed with an *annealed*
  (configuration-model) approximation: the engine tracks the exact
  per-state count of active edge *endpoints* — conserved bookkeeping
  under state changes, activations, deactivations, and faults — and
  derives the per-class edge census each leap by random endpoint
  matching (``e(a,b) ~ E_a E_b / 2E``).  The census cannot know *which*
  concrete edges a changed node carried; deriving compositions from
  endpoint masses (instead of integrating per-class flows) makes the
  closure drift-free: a state that holds active endpoints always
  retains its matching share of every interaction channel.  The leap
  regime is therefore an *approximate* sampler of the interaction
  process, and not only through the edge closure: each leap advances
  the clock at the total weight frozen at its start while the batch
  grows, so even on the edge-free one-way epidemic the mean
  stabilization time overshoots the closed form (n-1)H(n-1) —
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

The census walk applies faults census-wise: ``crash`` / ``churn``
victims are drawn by one multivariate-hypergeometric state selection
(:func:`repro.core.faults.census_sample_states`), ``arrive`` / ``revive``
add initial-state counts, and crashed nodes shed their incident-edge
endpoints by the annealed share (surviving far endpoints get the
protocol's crash notification).  Identity-based faults (``cut``,
``byzantine``) and scripted initial configurations (``doped:``,
``graph:``) are declined by :meth:`CountSimulator.supports`, so scenario
routing falls back to an identity-aware engine.

The batched draws come from numpy's seeded generator (numpy is a
dependency of scipy and of :mod:`repro.analysis.fitting`), so a seeded
leap run is a deterministic function of the engine seed.  numpy is
imported on the first leap run, not with the engines.
"""

from __future__ import annotations

from repro.core.configuration import Census, Configuration, census_pair_key
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

    def random(self) -> float:
        return float(self._rng.random())

    def randrange(self, n: int) -> int:
        return int(self._rng.integers(n))

    def binomial(self, n: int, p: float) -> int:
        if n <= 0 or p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        return int(self._rng.binomial(n, p))

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


def derive_edge_census(counts, ends, total_edges):
    """Integer per-class edge census implied by the annealed closure:
    expected random-matching counts ``E_a E_b / 2E`` (``E_a^2 / 4E`` on
    the diagonal), capped by per-class pair capacity, rounded by largest
    remainder so the total stays as close to ``total_edges`` as the caps
    allow.  Keys are ``(a, b)`` with ``a <= b`` in the ordering of the
    supplied state keys."""
    if total_edges <= 0:
        return {}
    present = sorted(
        (s for s, c in counts.items() if c > 0 and ends.get(s, 0) > 0),
        key=repr,
    )
    rows = []  # [key, floor, fraction, cap]
    floored = 0
    for i, a in enumerate(present):
        for b in present[i:]:
            na = counts[a]
            cap = na * (na - 1) // 2 if a == b else na * counts[b]
            if cap <= 0:
                continue
            if a == b:
                expected = ends[a] * ends[a] / (4.0 * total_edges)
            else:
                expected = ends[a] * ends[b] / (2.0 * total_edges)
            expected = min(expected, float(cap))
            lo = int(expected)
            rows.append([(a, b), lo, expected - lo, cap])
            floored += lo
    remainder = min(total_edges - floored, sum(r[3] - r[1] for r in rows))
    # One edge per class per round, largest fraction first, until the
    # remainder is placed: it can exceed the number of classes (a class
    # whose expectation was capped leaves its share to the others), and
    # it never exceeds their room left.
    order = sorted(rows, key=lambda r: r[2], reverse=True)
    while remainder > 0:
        for row in order:
            if remainder <= 0:
                break
            if row[1] < row[3]:
                row[1] += 1
                remainder -= 1
    return {key: lo for key, lo, _frac, _cap in rows if lo > 0}


class _CensusConfigView:
    """Read-only ``Configuration`` facade over a census — just enough
    surface for count-based stabilization certificates (state counts and
    the active-edge total).  Certificates that inspect per-node structure
    raise ``AttributeError``, which routes the run to the exact engine."""

    __slots__ = ("_counts", "_n_edges")

    def __init__(self, counts: dict, n_edges: int) -> None:
        self._counts = counts
        self._n_edges = n_edges

    @property
    def n(self) -> int:
        return sum(self._counts.values())

    def state_counts(self) -> dict:
        return dict(self._counts)

    def count_in_state(self, state) -> int:
        return self._counts.get(state, 0)

    @property
    def n_active_edges(self) -> int:
        return self._n_edges


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
    """Anonymous count-based engine: census representation plus
    tau-leaped batched stepping above ``leap_threshold``, the exact
    state-indexed walk below it (see the module docstring for the
    regime split and its semantics).

    Parameters
    ----------
    seed, faults:
        As for every engine.
    leap_threshold:
        Population size at which the census leap regime engages; below
        it the run takes the (distributionally exact) indexed walk.
        ``None`` uses :data:`DEFAULT_LEAP_THRESHOLD`.
    """

    #: Below this population the exact indexed walk runs; above it the
    #: census leap regime engages (when the run is census-representable).
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
        #: every applied leap — state counts and active-endpoint masses
        #: keyed by interned ids.  Used by the test harness and handy for
        #: ad-hoc inspection; None in production.
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
        ``advance`` takes one leap.  ``None`` when the stabilization
        certificate needs per-node structure the census cannot provide."""
        compiled = protocol.compile()
        intern = compiled.intern
        state_of = compiled.state_of
        is_effective = compiled.is_effective
        resolved = compiled.resolved
        leap = make_leap_rng(self.seed)

        # Census keyed by interned state ids; DEAD tracked separately.
        # The edge structure is the annealed closure's sufficient
        # statistic: exact total ``n_edges`` plus exact per-state active
        # endpoint masses ``ends`` (sum = 2 * n_edges).
        counts: dict[int, int] = {}
        ends: dict[int, int] = {}
        n_edges = 0
        dead_count = 0
        if config is None and (
            type(protocol).initial_configuration
            is Protocol.initial_configuration
        ):
            # The model's canonical start: all n nodes in initial_state,
            # no edges — O(1), which is what makes n = 10^6 cheap.
            counts[intern(protocol.initial_state)] = n
        else:
            # Non-uniform protocol-defined start (seeded epidemics, tape
            # layouts): materialize once and keep only its census.
            cen = (
                config if config is not None
                else protocol.initial_configuration(n)
            ).census()
            for s, c in cen.counts.items():
                if s == DEAD:
                    dead_count = c
                else:
                    counts[intern(s)] = counts.get(intern(s), 0) + c
            for (a, b), e in cen.edges.items():
                if a == DEAD or b == DEAD:
                    continue
                ia, ib = intern(a), intern(b)
                ends[ia] = ends.get(ia, 0) + e
                ends[ib] = ends.get(ib, 0) + e
                n_edges += e
        alive = sum(counts.values())

        def raw_census() -> dict:
            raw = {state_of(s): c for s, c in counts.items() if c > 0}
            if dead_count:
                raw[DEAD] = dead_count
            return raw

        # Probe the certificate: if it needs per-node structure, the
        # indexed walk runs instead.  Probing first also keeps the bus
        # quiet until the leap regime is committed.
        try:
            bool(stabilized(_CensusConfigView(raw_census(), n_edges)))
        except Exception:
            return None

        def materialize() -> Configuration:
            """A census-faithful :class:`Configuration`: per-class edge
            counts are derived from the annealed closure's endpoint
            masses (:func:`derive_edge_census`), then realized with the
            canonical geometry of :meth:`Configuration.from_census`."""
            raw_counts = raw_census()
            raw_edges: dict = {}
            for (a, b), e in derive_edge_census(counts, ends, n_edges).items():
                key = census_pair_key(state_of(a), state_of(b))
                raw_edges[key] = raw_edges.get(key, 0) + e
            census = Census(raw_counts, raw_edges)
            clamped = {
                key: min(e, census.class_pairs(*key))
                for key, e in raw_edges.items()
            }
            return Configuration.from_census(Census(raw_counts, clamped))

        def certificate() -> bool:
            try:
                return bool(stabilized(_CensusConfigView(raw_census(), n_edges)))
            except Exception:
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
            publish.census(CensusFrame(step, raw_census(), n_edges, effective))

        def final(steps: int) -> Configuration:
            if publish is not None:
                emit_census(steps, force=True)
            return materialize()

        def pairs(a: int, b: int) -> int:
            na = counts.get(a, 0)
            if a == b:
                return na * (na - 1) // 2
            return na * counts.get(b, 0)

        def eadd(s: int, delta: int) -> None:
            # Negatives are allowed transiently: a leap that over-fires a
            # class is detected post-batch and retried smaller.
            if delta == 0:
                return
            value = ends.get(s, 0) + delta
            if value == 0:
                ends.pop(s, None)
            else:
                ends[s] = value

        def expected_edges(a: int, b: int) -> float:
            """Annealed (random endpoint matching) class composition."""
            if n_edges <= 0:
                return 0.0
            ea = ends.get(a, 0)
            if a == b:
                return ea * ea / (4.0 * n_edges)
            return ea * ends.get(b, 0) / (2.0 * n_edges)

        out_states = protocol.output_states
        notify_crash = protocol.on_neighbor_crash

        def side_flow(s: int, s2: int, k: int, direct: int) -> tuple[int, int, int]:
            """Endpoint flow for ``k`` firings whose ``s``-side mover
            changed state to ``s2``: each mover carries its direct
            interaction endpoint (exact, ``direct`` is 1 when the
            interaction edge was active) plus its other active endpoints
            at the state's mean other-degree ``ends(s)/count(s) -
            direct``.  The share is a probabilistically-rounded
            expectation, not a binomial draw: endpoint masses of sparse
            states (walkers, leaders) are deterministic in the true
            process, so the closure must not inject O(sqrt(k)) noise into
            them — that random-walks small masses into absorbing zero and
            freezes their interaction channels.  Returns ``(s, s2,
            moved)`` without mutating, so both sides of one firing batch
            are computed from the same pre-firing masses (applying one
            side first would contaminate the other side's degree)."""
            if s == s2 or k <= 0:
                return (s, s2, 0)
            ns = counts.get(s, 0)
            guaranteed = k * direct
            pool = max(0, ends.get(s, 0) - guaranteed)
            moved = guaranteed
            if pool > 0 and ns > 0:
                extra = ends.get(s, 0) / ns - direct
                if extra > 0.0:
                    expected = k * extra
                    lot = int(expected)
                    if leap.random() < expected - lot:
                        lot += 1
                    moved += min(pool, lot)
            return (s, s2, moved)

        def move_side(s: int, s2: int, k: int, direct: int) -> None:
            s, s2, moved = side_flow(s, s2, k, direct)
            if moved:
                eadd(s, -moved)
                eadd(s2, moved)

        def faults(plan, at: int) -> tuple[str, ...]:
            """Apply the plan's actions at ``at`` census-wise: the plan
            sees the synthetic ids of :class:`_PlanFacade`, and a crash
            is one hypergeometric draw of the victims' states."""
            nonlocal alive, dead_count, n_edges
            changed = False
            kinds: list[str] = []
            facade = _PlanFacade(alive, dead_count)
            for action in plan.actions_at(at, facade, range(alive)):
                kinds.append(action.kind)
                if action.kind == "crash":
                    k = min(len(action.nodes), alive)
                    if k <= 0:
                        continue
                    drawn = census_sample_states(counts, k, leap)
                    for s, c in drawn.items():
                        ns = counts.get(s, 0)
                        es = ends.get(s, 0)
                        # Crashed nodes take their active endpoints with
                        # them; every lost edge also sheds its far endpoint
                        # (annealed partner draw) and the far node gets the
                        # protocol's crash notification.
                        lost = min(es, leap.binomial(es, min(1.0, c / max(ns, 1))))
                        if lost > 0:
                            eadd(s, -lost)
                            n_edges -= lost
                            partners = [x for x in list(ends) if ends[x] > 0]
                            weights = [float(ends[x]) for x in partners]
                            split = (
                                leap.multinomial(lost, weights) if partners else []
                            )
                            for x, cx in zip(partners, split):
                                take = min(cx, ends.get(x, 0))
                                if take <= 0:
                                    continue
                                eadd(x, -take)
                                moved_state = notify_crash(state_of(x))
                                if moved_state is not None:
                                    new_id = intern(moved_state)
                                    if new_id != x:
                                        movers = min(take, counts.get(x, 0))
                                        if movers > 0:
                                            move_side(x, new_id, movers, 0)
                                            counts[x] -= movers
                                            counts[new_id] = (
                                                counts.get(new_id, 0) + movers
                                            )
                        counts[s] = counts.get(s, 0) - c
                        if counts.get(s, 0) <= 0:
                            counts.pop(s, None)
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
                    if p_ab <= 0:
                        continue
                    e_ab = min(expected_edges(a, b), float(p_ab))
                    for c, w in ((1, e_ab), (0, p_ab - e_ab)):
                        if w > 1e-12 and is_effective(a, b, c):
                            out.append(((min(a, b), max(a, b), c), w))
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

        def apply_class(a: int, b: int, c: int, k: int) -> tuple[int, bool]:
            """Apply ``k`` firings of class ``(a, b, c)`` to the census.
            Returns ``(non-identity firings, output graph affected)``."""
            nonlocal n_edges
            dist, swapped = resolved(a, b, c)
            if len(dist) == 1:
                split = [k]
            else:
                split = leap.multinomial(k, [p for p, _ in dist])
            changed = 0
            out_changed = False
            for (_prob, (o1, o2, e2)), ko in zip(dist, split):
                if ko <= 0:
                    continue
                new_a, new_b = (o2, o1) if swapped else (o1, o2)
                if new_a == a and new_b == b and e2 == c:
                    continue  # identity outcome of a probabilistic rule
                changed += ko
                # Movers carry their endpoints (direct one exact, others
                # annealed).  Both sides' flows are computed from the same
                # pre-firing masses, then applied together; the direct
                # edge's own activation change is settled exactly after.
                flows = []
                if new_a != a:
                    flows.append(side_flow(a, new_a, ko, c))
                if new_b != b:
                    flows.append(side_flow(b, new_b, ko, c))
                for fs, fs2, moved in flows:
                    if moved:
                        eadd(fs, -moved)
                        eadd(fs2, moved)
                if new_a != a:
                    counts[a] = counts.get(a, 0) - ko
                    counts[new_a] = counts.get(new_a, 0) + ko
                if new_b != b:
                    counts[b] = counts.get(b, 0) - ko
                    counts[new_b] = counts.get(new_b, 0) + ko
                if e2 != c:
                    delta = ko if e2 == 1 else -ko
                    eadd(new_a, delta)
                    eadd(new_b, delta)
                    n_edges += delta
                    out_changed = True
                elif out_states is not None:
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
            nonlocal n_edges, effective, prev_k, k_ceiling
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
                split = leap.multinomial(k, [float(w) for _, w in ws])
                snap_counts = dict(counts)
                snap_ends = dict(ends)
                snap_n_edges = n_edges
                changed = 0
                out_any = False
                for ((a, b, c), _w), kc in zip(ws, split):
                    if kc > 0:
                        ch, oc = apply_class(a, b, c, kc)
                        changed += ch
                        out_any = out_any or oc
                if (
                    n_edges < 0
                    or any(v < 0 for v in counts.values())
                    or any(v < 0 for v in ends.values())
                ):
                    # Tau-leap overshoot: restore and retry with a smaller
                    # leap.
                    counts.clear()
                    counts.update(snap_counts)
                    ends.clear()
                    ends.update(snap_ends)
                    n_edges = snap_n_edges
                    k_ceiling = max(1, k // 2)
                    prev_k = 0
                    continue
                for s in [s for s, c in counts.items() if c == 0]:
                    del counts[s]
                steps += elapsed
                effective += changed
                prev_k = k
                if self.leap_hook is not None:
                    self.leap_hook(steps, counts, ends, k)
                if publish is not None:
                    emit_census(steps)
                if out_any:
                    return steps, _APPLIED_OUTPUT, changed, 0, 0
                return steps, _APPLIED if changed else _MOVED, changed, 0, 0

        return _Walk(
            advance, faults, certificate, raw_census, lambda: n_edges, final
        )


#: Register the engine.  ``simulator`` imports this module at the end of
#: its own body (and this module imports ``simulator``), so registration
#: happens exactly once whichever module is imported first.
ENGINES["count"] = CountSimulator
