"""Fault injection — the adversarial environment axis of a scenario.

Models the *Fault Tolerant Network Constructors* setting (Michail,
Spirakis & Theofilatos 2019) on top of the PODC 2014 model: between
scheduler picks the adversary may **crash-stop** nodes (a crashed node
stops interacting forever and its incident edges are removed from the
configuration), **delete edges** — either a one-shot scheduled cut of
specific edges or a sustained deletion rate — and **change the
population**: fresh nodes may arrive in the protocol's initial state,
crashed nodes may recover, and sustained churn pairs departures with
arrivals.

Every fault model registers itself in :data:`FAULTS` (a
:class:`~repro.core.params.SpecRegistry`); spec strings are the
``faults`` axis of a :class:`~repro.core.scenario.Scenario`::

    crash:at=1000,count=2        # crash 2 uniformly-chosen nodes at step 1000
    cut:at=500,edges=0-1+2-3     # adversarially cut specific edges at step 500
    edge-drop:rate=0.0001        # each step w.p. rate delete one random edge
    edge-rate:rate=0.000001      # each active edge independently fails
                                 #   w.p. rate per step
    arrive:at=2000,count=5       # 5 fresh nodes join (initial state) at 2000
    recover:at=1000,count=2,delay=500   # 2 DEAD nodes rejoin at step 1500
    churn:rate=0.0001            # each step w.p. rate: one crash + one arrival
    byzantine:count=2,rate=0.0001,mode=replay
                                 # 2 byzantine nodes lie about their
                                 #   state/edge-flags at geometric times

For example:

>>> from repro.core.faults import FAULTS
>>> FAULTS.canonical("crash-stop:count=2")
'crash:at=0,count=2'
>>> model = FAULTS.instantiate("arrive:count=3,at=100")
>>> (model.count, model.at)
(3, 100)

Execution model
---------------
A :class:`FaultModel` is a serializable description; :meth:`compile`
binds it to a population size and a dedicated random stream (derived
from the trial seed, so fault randomness never perturbs the scheduler's
stream) producing a :class:`FaultPlan`.  Every model compiles to that
one plan class: a clock — a one-shot step, or a per-step Bernoulli rate
clock with geometric gaps — plus the model's firing rule, which turns a
firing into concrete :class:`FaultAction` s.  Plans are *step-indexed*:
``next_step`` names the next step at which something fires and
``actions_at`` yields the actions for that step, so the event-driven
engines can cap their geometric skips at the next fault event instead
of walking every step.  A fault scheduled at step ``f`` is applied
after the scheduler's pick number ``f`` and before pick ``f + 1``
(``at=0`` fires before the first pick).  All models of a run draw from
one fault stream, so the order of their draws is part of the seeded
law: rate clocks draw their first gap at compile time, in model order,
and a firing that finds nothing to act on draws nothing.

>>> import random
>>> plan = FAULTS.instantiate("arrive:count=3,at=100").compile(
...     8, random.Random(0))
>>> plan.next_step(-1), plan.next_step(100)
(100, None)
>>> plan.mutates_population
True

Crashed nodes keep their slot in the :class:`Configuration` but move to
the :data:`DEAD` sentinel state — no protocol rule mentions it, so
certificate predicates that count protocol states simply no longer see
the crashed node.  Engines additionally remove dead nodes from their
candidate-pair structures: scheduler steps count picks among *alive*
pairs only, identically in all engines.  When a node crashes, each
surviving neighbor is notified through
:meth:`repro.core.protocol.Protocol.on_neighbor_crash` (the 2019
paper's minimal strengthening); the default hook ignores the
notification, fault-aware protocols use it to trigger local repair.
Environment edge deletions (``cut``, ``edge-drop``, ``edge-rate``)
likewise notify both surviving endpoints through
:meth:`repro.core.protocol.Protocol.on_edge_loss`; *silent* cuts — the
edge-flag lies of the ``byzantine`` model — bypass that hook.

Population events (``arrive``, ``recover``, ``churn``) grow or shrink
the *alive* population mid-run: arriving nodes take fresh ids at the
end of the configuration, recovering nodes leave the :data:`DEAD`
state for the protocol's initial state.  Engines re-derive their pair
counts at every population event, and stabilization is gated on the
plan's :attr:`~FaultPlan.horizon`, so a run never declares itself
stable while scheduled arrivals or recoveries are still pending.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.core.configuration import Configuration
from repro.core.errors import SimulationError
from repro.core.params import (
    Param,
    SpecRegistry,
    format_pair_list,
    pair_list,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import Protocol, State

_C = TypeVar("_C", bound=type)

#: Sentinel state of a crashed node.  Not a member of any protocol's
#: state set, so every rule lookup involving it is an ineffective
#: identity and state-counting certificates ignore the node.
DEAD = "__dead__"

#: Global fault-model registry: name -> parameterized fault spec.
FAULTS = SpecRegistry("fault model")


def register_fault(
    name: str,
    *,
    params: tuple[Param, ...] = (),
    description: str = "",
    aliases: tuple[str, ...] = (),
) -> Callable[[_C], _C]:
    """Class decorator: register a :class:`FaultModel` in :data:`FAULTS`."""
    return FAULTS.register(
        name, params=params, description=description, aliases=aliases
    )


def survivors(config: Configuration) -> list[int]:
    """Nodes that have not crashed (state is not :data:`DEAD`).

    >>> from repro.core.configuration import Configuration
    >>> config = Configuration(["q0", "__dead__", "q1"])
    >>> survivors(config)
    [0, 2]
    """
    return [u for u in range(config.n) if config.state(u) != DEAD]


def dead_nodes(config: Configuration) -> list[int]:
    """Crashed nodes (state is :data:`DEAD`) — the recovery pool of the
    ``recover`` fault model.

    >>> from repro.core.configuration import Configuration
    >>> dead_nodes(Configuration(["q0", "__dead__", "q1"]))
    [1]
    """
    return [u for u in range(config.n) if config.state(u) == DEAD]


def compact_survivors(config: Configuration) -> Configuration:
    """The surviving population as a fresh :class:`Configuration`:
    alive nodes renumbered ``0..k-1`` (in id order) with their states
    and the active edges among them.  Target predicates like
    ``protocol.target_reached`` are defined over whole configurations,
    so robustness metrics evaluate them on this compaction — a crashed
    node must not count as a missing line segment.

    >>> from repro.core.configuration import Configuration
    >>> config = Configuration(["q1", "__dead__", "l"], [(0, 2)])
    >>> compact = compact_survivors(config)
    >>> compact.states(), sorted(compact.active_edges())
    (['q1', 'l'], [(0, 1)])
    """
    alive = survivors(config)
    renumber = {u: i for i, u in enumerate(alive)}
    return Configuration(
        [config.state(u) for u in alive],
        [
            (renumber[u], renumber[v])
            for u, v in config.active_edges()
            if u in renumber and v in renumber
        ],
    )


def join_state(protocol: Protocol) -> State:
    """The state in which arriving and recovering nodes join a run."""
    state = protocol.initial_state
    if state is None:
        raise SimulationError(
            f"{protocol.name} declares no initial_state; population events "
            "(arrive/churn/recover) need one to initialize joining nodes"
        )
    return state


def probability(raw: float | str) -> float:
    """Coerce a sustained-fault rate, requiring ``0 < rate < 1``.

    >>> probability("0.25")
    0.25
    >>> probability(1.5)
    Traceback (most recent call last):
        ...
    ValueError: rate must be in (0, 1), got 1.5
    """
    value = float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {value}")
    return value


def census_sample_states(
    counts: dict[State, int], k: int, rng: random.Random
) -> dict[State, int]:
    """Draw ``k`` distinct nodes from a state census and return how many
    landed in each state — the census-wise equivalent of sampling fault
    victims uniformly from the alive population (multivariate
    hypergeometric, drawn sequentially without replacement).

    The anonymity-aware count engine uses this to apply ``crash`` /
    ``churn`` victims to a ``(state -> count)`` census without naming
    concrete node ids: a uniformly random alive node is in state ``s``
    with probability ``counts[s] / population``, and each draw removes
    the chosen node from the pool.

    >>> import random
    >>> census_sample_states({"a": 2, "b": 1}, 3, random.Random(0))
    {'a': 2, 'b': 1}
    >>> census_sample_states({"a": 5}, 2, random.Random(0))
    {'a': 2}
    """
    pool = {s: c for s, c in counts.items() if c > 0}
    total = sum(pool.values())
    if k > total:
        raise SimulationError(
            f"cannot sample {k} nodes from a census of {total}"
        )
    drawn: dict[State, int] = {}
    ordered = sorted(pool, key=repr)
    for _ in range(k):
        pick = rng.randrange(total)
        acc = 0
        for s in ordered:
            avail = pool[s]
            acc += avail
            if pick < acc:
                pool[s] = avail - 1
                drawn[s] = drawn.get(s, 0) + 1
                break
        total -= 1
    return drawn


@dataclass(frozen=True)
class FaultAction:
    """One concrete adversarial act, resolved to nodes/edges.

    ``kind`` is one of:

    * ``"crash"`` — crash-stop every node in ``nodes``;
    * ``"cut"`` — deactivate every edge in ``edges``; unless ``silent``,
      both surviving endpoints of each deactivated edge are notified
      through :meth:`repro.core.protocol.Protocol.on_edge_loss`;
    * ``"corrupt"`` — a byzantine lie: set the state of ``nodes[i]`` to
      ``states[i]`` (no notification of anyone — the node *claims* the
      new state from here on);
    * ``"arrive"`` — grow the population by ``count`` fresh nodes in
      the protocol's initial state;
    * ``"revive"`` — return every :data:`DEAD` node in ``nodes`` to the
      protocol's initial state.

    Engines apply actions through their own mutation paths so indexes
    stay coherent.
    """

    step: int
    kind: str
    nodes: tuple[int, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    count: int = 0
    states: tuple = ()
    silent: bool = False


#: A fault model's firing rule ``fire(step, config, alive)``: the
#: concrete actions of one firing at ``step``, given the configuration
#: and its alive node ids in ascending order, as a list or a ``range``
#: (``random.sample`` and indexing pick the same ids from either).  A
#: firing that finds nothing to act on returns ``[]`` without drawing
#: from the fault stream.
FireRule = Callable[[int, Configuration, Sequence[int]], list[FaultAction]]


def _geometric_gap(after: int, rate: float, rng: random.Random) -> int:
    """The next event time of a per-step Bernoulli(``rate``) process,
    strictly after ``after`` (inverse-CDF geometric draw).  A rate of 1
    fires at every step and draws nothing; a gap too long for a float
    (``rate`` below ~1e-307) is capped far beyond any step budget."""
    if rate >= 1.0:
        return after + 1
    skip = math.log(1.0 - rng.random()) / math.log1p(-rate)
    return after + 1 + int(min(skip, sys.float_info.max))


class FaultPlan:
    """A fault model bound to one run: a step-indexed event stream.

    A plan is a clock plus the model's firing rule ``fire``.  The clock
    is either a one-shot step ``at``, which is also the plan's
    :attr:`horizon`, or a rate clock: a per-step Bernoulli(``rate``)
    process whose geometric gaps are drawn from ``rng``, the first one
    when the plan is built.  A plan with neither never fires.

    >>> import random
    >>> plan = FaultPlan(
    ...     lambda step, config, alive: [FaultAction(step, "arrive", count=1)],
    ...     rate=0.25, rng=random.Random(3), mutates_population=True)
    >>> steps = [plan.next_step(-1)]
    >>> for _ in range(4):
    ...     steps.append(plan.next_step(steps[-1]))
    >>> steps
    [1, 4, 6, 10, 14]
    >>> [a.kind for a in plan.actions_at(14, Configuration([]), [])]
    ['arrive']
    >>> plan.actions_at(15, Configuration([]), []), plan.horizon
    ([], -1)
    """

    #: Last step at which a *scheduled one-shot* event fires (``-1``
    #: when the plan has none).  Engines refuse to declare stabilization
    #: before the horizon has passed, so a certificate holding at step
    #: 100 does not end a run whose crash is scheduled for step 10_000.
    #: Population events share the same gate: the horizon of an
    #: ``arrive``/``recover`` plan is its (last) join step.
    horizon: int = -1

    #: True when the plan can change the alive population (arrivals,
    #: recoveries, churn).  Engines must not declare quiescence while
    #: such a plan still has pending events — a joining node can create
    #: effective pairs out of nothing.
    mutates_population: bool = False

    def __init__(
        self,
        fire: FireRule,
        *,
        at: int | None = None,
        rate: float = 0.0,
        rng: random.Random | None = None,
        mutates_population: bool = False,
    ) -> None:
        self.fire = fire
        self.at = at
        self.rate = rate
        self.rng = rng
        self.mutates_population = mutates_population
        self._next: int | None = None
        if at is not None:
            self.horizon = at
            self._next = at
        elif rate > 0.0:
            self._next = self._gap(0)

    def _gap(self, after: int) -> int:
        assert self.rng is not None, "a rate clock draws from an rng"
        return _geometric_gap(after, self.rate, self.rng)

    def next_step(self, after: int) -> int | None:
        """The next step strictly greater than ``after`` at which this
        plan fires, or ``None`` when nothing is left."""
        if self.at is not None:
            return self.at if after < self.at else None
        while self._next is not None and self._next <= after:
            self._next = self._gap(self._next)
        return self._next

    def actions_at(
        self, step: int, config: Configuration, alive: Sequence[int]
    ) -> list[FaultAction]:
        """Concrete actions firing at ``step`` (may be empty — e.g. a
        deletion attempt finding no active edge)."""
        if step != self._next:
            return []
        return self.fire(step, config, alive)


class FaultModel:
    """Base class for registered fault models (pure descriptions)."""

    #: True when every event of the model is a scheduled one-shot (the
    #: plan's event stream is finite).  Sustained models (edge-drop,
    #: churn) set this False; runs with them need a finite step budget.
    bounded = True

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        """Bind the model to a population size and a random stream.

        ``protocol`` is the protocol under attack; most models ignore it,
        but protocol-aware adversaries (:class:`ByzantineFaults`) need its
        declared state set / leader states to fabricate lies."""
        raise NotImplementedError


class _RateFaults(FaultModel):
    """Base of the sustained models driven by one per-step ``rate``."""

    bounded = False

    def __init__(self, rate: float) -> None:
        try:
            self.rate = probability(rate)
        except (TypeError, ValueError) as exc:
            raise SimulationError(str(exc)) from None


# ----------------------------------------------------------------------
# Concrete models
# ----------------------------------------------------------------------

@register_fault(
    "crash",
    params=(
        Param("count", int, default=1, minimum=1,
              help="how many nodes crash"),
        Param("at", int, default=0, minimum=0,
              help="scheduler step at which they crash"),
    ),
    aliases=("crash-stop",),
    description="crash-stop `count` uniformly-chosen nodes at step `at`",
)
class CrashFaults(FaultModel):
    """At step ``at``, crash ``count`` nodes chosen uniformly among the
    still-alive population (fewer if not enough survive)."""

    def __init__(self, count: int = 1, at: int = 0) -> None:
        if count < 1:
            raise SimulationError(f"crash count must be >= 1, got {count}")
        if at < 0:
            raise SimulationError(f"crash step must be >= 0, got {at}")
        self.count = count
        self.at = at

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        count = self.count

        def fire(
            step: int, config: Configuration, alive: Sequence[int]
        ) -> list[FaultAction]:
            victims = rng.sample(alive, min(count, len(alive)))
            return [FaultAction(step, "crash", nodes=tuple(sorted(victims)))]

        return FaultPlan(fire, at=self.at)


@register_fault(
    "cut",
    params=(
        Param("edges", pair_list, format=format_pair_list,
              help="edges to deactivate, e.g. 0-1+2-3"),
        Param("at", int, default=0, minimum=0,
              help="scheduler step at which the cut happens"),
    ),
    aliases=("edge-cut",),
    description="one-shot adversarial cut of specific edges at step `at`",
)
class EdgeCutFaults(FaultModel):
    """At step ``at``, deactivate each listed edge (no-ops for edges
    that are not active at that moment)."""

    def __init__(self, edges: object, at: int = 0) -> None:
        try:
            self.edges = pair_list(edges)
        except (ValueError, TypeError) as exc:
            raise SimulationError(f"bad edge cut: {exc}") from None
        if at < 0:
            raise SimulationError(f"cut step must be >= 0, got {at}")
        self.at = at

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        edges = self.edges
        for u, v in edges:
            if u >= n or v >= n:
                raise SimulationError(
                    f"cut edge {(u, v)} out of range for n={n}"
                )

        def fire(
            step: int, config: Configuration, alive: Sequence[int]
        ) -> list[FaultAction]:
            return [FaultAction(step, "cut", edges=edges)]

        return FaultPlan(fire, at=self.at)


@register_fault(
    "edge-drop",
    params=(
        Param("rate", probability, default=None,
              help="per-step probability of one deletion attempt"),
    ),
    aliases=("edge-deletion",),
    description="each step w.p. `rate` delete one uniform active edge",
)
class EdgeDropFaults(_RateFaults):
    """Sustained random edge deletion: at every scheduler step, with
    probability ``rate``, one uniformly-chosen active edge is
    deactivated.  Attempt times are geometric, hence step-indexed, so
    the skip-ahead engines handle this model exactly."""

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        def fire(
            step: int, config: Configuration, alive: Sequence[int]
        ) -> list[FaultAction]:
            if not config.n_active_edges:
                return []
            active = sorted(config.active_edges())
            edge = active[rng.randrange(len(active))]
            return [FaultAction(step, "cut", edges=(edge,))]

        return FaultPlan(fire, rate=self.rate, rng=rng)


def _unrank_pairs(
    slots: Iterable[int], n: int
) -> Iterator[tuple[int, int]]:
    """The pairs ``(u, v)``, ``u < v``, at the ``slots`` of the
    lexicographic order over the ``n * (n - 1) / 2`` unordered pairs.

    Row ``u`` starts at slot ``u * (2n - 1 - u) / 2``, so a slot's row
    is the smaller root of that quadratic, rounded down.
    :func:`math.isqrt` of the discriminant gives that row or the next
    one, and one integer step corrects it: O(1) per slot.

    >>> list(_unrank_pairs(range(6), 4))
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    """
    b = 2 * n - 1
    for slot in slots:
        u = (b - math.isqrt(b * b - 8 * slot)) // 2
        first = u * (b - u) // 2  # the slot of (u, u + 1)
        if first > slot:
            u -= 1
            first = u * (b - u) // 2
        yield (u, u + 1 + slot - first)


def _firing_slots(
    m: int, rate: float, p_total: float, rng: random.Random
) -> list[int]:
    """The slots, in increasing order, whose Bernoulli(``rate``) clocks
    fire at one event of their union clock of rate ``p_total`` — that
    is, conditioned on at least one of the ``m`` firing.

    The number ``K`` that fire is drawn by an exact inverse-CDF walk
    over ``P(K = k) = C(m, k) rate^k (1-rate)^(m-k) / p_total`` from
    ``P(K = 1)``, and the slots are a uniform ``K``-sample.  Once
    ``(1 - rate)^(m - 1)`` falls below the normal float range
    (``(m - 1) * -ln(1 - rate)`` above ~708), ``P(K = 1)`` loses
    precision and then underflows to 0.0; the walk's mass can fall
    short of the roll, and then it fires every slot.  There the slot
    clocks run themselves: geometric skips over the ``m`` slots,
    redrawn in the (< 1e-300) case that none fires.
    """
    quiet = math.pow(1.0 - rate, m - 1)  # P(some m - 1 slots stay quiet)
    if quiet < sys.float_info.min:
        slots: list[int] = []
        while not slots:
            slot = _geometric_gap(-1, rate, rng)
            while slot < m:
                slots.append(slot)
                slot = _geometric_gap(slot, rate, rng)
        return slots
    pk = m * rate * quiet  # P(K = 1)
    roll = rng.random() * p_total
    k = 1
    acc = pk
    while roll >= acc and k < m:
        pk *= (m - k) / (k + 1) * rate / (1.0 - rate)
        k += 1
        acc += pk
    return sorted(rng.sample(range(m), k))


@register_fault(
    "edge-rate",
    params=(
        Param("rate", probability, default=None,
              help="per-edge per-step failure probability"),
    ),
    aliases=("edge-failure",),
    description="each active edge independently fails w.p. `rate` per step",
)
class EdgeRateFaults(_RateFaults):
    """Per-edge independent failure: every *active* edge, at every
    scheduler step, fails independently with probability ``rate``.

    Unlike :class:`EdgeDropFaults` (one deletion attempt per step,
    whatever the network looks like), the aggregate failure pressure
    here scales with the number of active edges — the classic
    independent-link-failure model.  The construction is exact and
    step-indexed: all ``m = n(n-1)/2`` pair slots carry independent
    per-step Bernoulli(``rate``) clocks; a clock firing on an *inactive*
    pair is a no-op, so the marginal law on active edges is exactly
    independent failure.  The plan's clock is their union, of rate
    ``p = 1 - (1 - rate)^m``, and the firing set at an event is drawn
    exactly given that one fired, at any ``m * rate`` — the skip-ahead
    engines never walk the quiet steps.

    The slot set is fixed at the compile-time population size: edges
    among nodes that *arrive* later are outside this model's reach
    (combine with ``edge-drop`` if arriving nodes must be at risk too).
    """

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        rate = self.rate
        m = n * (n - 1) // 2
        # P(at least one of the m clocks fires this step).
        p_total = -math.expm1(m * math.log1p(-rate))

        def fire(
            step: int, config: Configuration, alive: Sequence[int]
        ) -> list[FaultAction]:
            slots = _firing_slots(m, rate, p_total, rng)
            state = config.state
            cut = tuple(
                (u, v) for u, v in _unrank_pairs(slots, n)
                if state(u) != DEAD and state(v) != DEAD
                and config.edge_state(u, v)
            )
            return [FaultAction(step, "cut", edges=cut)] if cut else []

        return FaultPlan(fire, rate=p_total, rng=rng)


#: Byzantine lie modes: how a corrupted node fabricates its claimed state.
BYZANTINE_MODES = ("random-state", "replay", "always-leader")


@register_fault(
    "byzantine",
    params=(
        Param("count", int, default=1, minimum=1,
              help="how many byzantine nodes"),
        Param("rate", probability, default=0.0001,
              help="per-step probability of one lie event"),
        Param("mode", str, default="random-state",
              help="lie mode: random-state | replay | always-leader"),
        Param("lie", float, default=0.5,
              help="probability a lie also silently drops an incident edge"),
    ),
    aliases=("byz",),
    description="`count` byzantine nodes lie about state/edge-flags "
                "(modes: random-state, replay, always-leader)",
)
class ByzantineFaults(_RateFaults):
    """``count`` nodes, chosen uniformly at compile time, behave
    byzantinely: at geometric times (per-step probability ``rate``) one
    of them *lies* about its protocol state, and with probability
    ``lie`` additionally lies about an edge-flag — silently dropping one
    incident active edge, bypassing
    :meth:`~repro.core.protocol.Protocol.on_edge_loss` (an environment
    cut notifies; a byzantine drop does not, which is what makes it
    strictly nastier).

    A byzantine node may behave arbitrarily, so the lie is modeled as an
    actual state change (a ``"corrupt"`` action): from the interaction
    semantics' point of view a node *is* what it claims to be.  This
    keeps the exact engines distributionally identical — no per-
    interaction hot-path hooks — while exercising exactly the failure
    surface the FTNC 2019 model excludes.

    Modes
    -----
    * ``random-state`` — claim a uniformly random state from the
      protocol's declared state set (requires an enumerable
      :attr:`~repro.core.protocol.Protocol.states`);
    * ``replay`` — claim the state the node held at the *previous* lie
      event (stale-state replay; works for any protocol);
    * ``always-leader`` — impersonate the construction's leader
      (requires a non-empty
      :attr:`~repro.core.protocol.Protocol.leader_states`).
    """

    def __init__(
        self,
        count: int = 1,
        rate: float = 0.0001,
        mode: str = "random-state",
        lie: float = 0.5,
    ) -> None:
        if count < 1:
            raise SimulationError(
                f"byzantine count must be >= 1, got {count}"
            )
        super().__init__(rate)
        if mode not in BYZANTINE_MODES:
            raise SimulationError(
                f"unknown byzantine mode {mode!r}; "
                f"choose from {list(BYZANTINE_MODES)}"
            )
        if not 0.0 <= float(lie) <= 1.0:
            raise SimulationError(
                f"edge-lie probability must be in [0, 1], got {lie}"
            )
        self.count = count
        self.mode = mode
        self.lie = float(lie)

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        if protocol is None:
            raise SimulationError(
                "byzantine faults are protocol-aware: compile with the "
                "protocol under attack (engines do this automatically)"
            )
        mode, lie = self.mode, self.lie
        state_pool: tuple[State, ...] = ()
        if mode == "random-state":
            if protocol.states is None:
                raise SimulationError(
                    f"byzantine mode 'random-state' needs an enumerable "
                    f"state set, but {protocol.name} declares none; use "
                    f"mode=replay for structured-state protocols"
                )
            state_pool = tuple(sorted(protocol.states, key=repr))
        leader_lie: State | None = None
        if mode == "always-leader":
            if not protocol.leader_states:
                raise SimulationError(
                    f"byzantine mode 'always-leader' needs leader_states, "
                    f"but {protocol.name} declares none"
                )
            leader_lie = min(protocol.leader_states, key=repr)
        initial_state = protocol.initial_state
        replayed: dict[int, State] = {}
        # The victims are drawn before the clock's first gap.
        victims = tuple(sorted(rng.sample(range(n), min(self.count, n))))

        def fire(
            step: int, config: Configuration, alive: Sequence[int]
        ) -> list[FaultAction]:
            active = [v for v in victims if v in alive]
            if not active:
                return []
            victim = active[rng.randrange(len(active))]
            current = config.state(victim)
            if mode == "random-state":
                claim = state_pool[rng.randrange(len(state_pool))]
            elif mode == "replay":
                fallback = current if initial_state is None else initial_state
                claim = replayed.get(victim, fallback)
                replayed[victim] = current
            else:  # always-leader
                claim = leader_lie
            actions = [
                FaultAction(step, "corrupt", nodes=(victim,), states=(claim,))
            ]
            if rng.random() < lie:
                nbrs = sorted(config.neighbors(victim))
                if nbrs:
                    x = nbrs[rng.randrange(len(nbrs))]
                    edge = (victim, x) if victim < x else (x, victim)
                    actions.append(
                        FaultAction(step, "cut", edges=(edge,), silent=True)
                    )
            return actions

        return FaultPlan(fire, rate=self.rate, rng=rng)


# ----------------------------------------------------------------------
# Population events: arrivals, recoveries, churn
# ----------------------------------------------------------------------

@register_fault(
    "arrive",
    params=(
        Param("count", int, default=1, minimum=1,
              help="how many fresh nodes join"),
        Param("at", int, default=0, minimum=0,
              help="scheduler step at which they join"),
    ),
    aliases=("arrival",),
    description="`count` fresh nodes join in the initial state at step `at`",
)
class ArrivalFaults(FaultModel):
    """At step ``at``, ``count`` fresh nodes join the population in the
    protocol's initial state with no active edges.  New nodes take the
    next free ids, so a run started with ``n`` nodes ends with node ids
    ``0 .. n + count - 1``."""

    def __init__(self, count: int = 1, at: int = 0) -> None:
        if count < 1:
            raise SimulationError(f"arrival count must be >= 1, got {count}")
        if at < 0:
            raise SimulationError(f"arrival step must be >= 0, got {at}")
        self.count = count
        self.at = at

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        count = self.count

        def fire(
            step: int, config: Configuration, alive: Sequence[int]
        ) -> list[FaultAction]:
            return [FaultAction(step, "arrive", count=count)]

        return FaultPlan(fire, at=self.at, mutates_population=True)


@register_fault(
    "recover",
    params=(
        Param("count", int, default=1, minimum=1,
              help="how many DEAD nodes rejoin"),
        Param("at", int, default=0, minimum=0,
              help="scheduler step at which recovery starts"),
        Param("delay", int, default=0, minimum=0,
              help="steps between recovery start and the rejoin"),
    ),
    aliases=("rejoin",),
    description="`count` DEAD nodes rejoin (initial state) at step `at+delay`",
)
class RecoverFaults(FaultModel):
    """At step ``at + delay``, up to ``count`` nodes chosen uniformly
    among the currently :data:`DEAD` ones rejoin the protocol in its
    initial state (fewer if fewer are dead; their old edges stay gone).
    ``delay`` models the repair latency between the recovery process
    starting at ``at`` and the nodes actually rejoining."""

    def __init__(self, count: int = 1, at: int = 0, delay: int = 0) -> None:
        if count < 1:
            raise SimulationError(f"recover count must be >= 1, got {count}")
        if at < 0 or delay < 0:
            raise SimulationError(
                f"recover step/delay must be >= 0, got at={at}, delay={delay}"
            )
        self.count = count
        self.at = at
        self.delay = delay

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        count = self.count

        def fire(
            step: int, config: Configuration, alive: Sequence[int]
        ) -> list[FaultAction]:
            dead = dead_nodes(config)
            if not dead:
                return []
            revived = rng.sample(dead, min(count, len(dead)))
            return [FaultAction(step, "revive", nodes=tuple(sorted(revived)))]

        return FaultPlan(
            fire, at=self.at + self.delay, mutates_population=True
        )


@register_fault(
    "churn",
    params=(
        Param("rate", probability, default=None,
              help="per-step probability of one departure+arrival pair"),
    ),
    aliases=("turnover",),
    description="each step w.p. `rate` crash one node and add one fresh node",
)
class ChurnFaults(_RateFaults):
    """Sustained population turnover: at every scheduler step, with
    probability ``rate``, one uniformly-chosen alive node crash-stops
    and one fresh node joins in the protocol's initial state — paired
    departures and arrivals, so the alive population size is invariant
    while its membership keeps rotating.  Event times are geometric,
    hence step-indexed, so the skip-ahead engines handle churn exactly."""

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        def fire(
            step: int, config: Configuration, alive: Sequence[int]
        ) -> list[FaultAction]:
            if not alive:
                return []
            victim = alive[rng.randrange(len(alive))]
            return [
                FaultAction(step, "crash", nodes=(victim,)),
                FaultAction(step, "arrive", count=1),
            ]

        return FaultPlan(
            fire, rate=self.rate, rng=rng, mutates_population=True
        )


class CompositeFaultPlan(FaultPlan):
    """Merge several plans into one step-indexed event stream."""

    def __init__(self, plans: list[FaultPlan]) -> None:
        self.plans = plans
        self.horizon = max(plan.horizon for plan in plans)
        self.mutates_population = any(
            plan.mutates_population for plan in plans
        )

    def next_step(self, after: int) -> int | None:
        steps = [
            s for s in (plan.next_step(after) for plan in self.plans)
            if s is not None
        ]
        return min(steps) if steps else None

    def actions_at(
        self, step: int, config: Configuration, alive: Sequence[int]
    ) -> list[FaultAction]:
        actions: list[FaultAction] = []
        for plan in self.plans:
            actions.extend(plan.actions_at(step, config, alive))
        return actions


# ----------------------------------------------------------------------
# Engine-facing entry point
# ----------------------------------------------------------------------

def _fault_seed(seed: int | None) -> int | None:
    """Derive the fault stream's seed from the trial seed (stable across
    processes; independent of the scheduler/interaction stream)."""
    if seed is None:
        return None
    digest = hashlib.sha256(f"faults|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def compile_fault_plan(
    models: tuple[FaultModel, ...],
    n: int,
    seed: int | None,
    protocol: Protocol | None = None,
) -> FaultPlan | None:
    """Compile an engine's fault models into one plan (``None`` when the
    scenario has no faults — the hot loops skip all fault bookkeeping).
    ``protocol`` is forwarded to each model's :meth:`FaultModel.compile`
    for protocol-aware adversaries."""
    if not models:
        return None
    rng = random.Random(_fault_seed(seed))
    plans = [model.compile(n, rng, protocol=protocol) for model in models]
    return plans[0] if len(plans) == 1 else CompositeFaultPlan(plans)
