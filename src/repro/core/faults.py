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
stream) producing a :class:`FaultPlan`.  Plans are *step-indexed*:
``next_step`` names the next step at which something fires and
``actions_at`` yields concrete :class:`FaultAction` s for that step, so
the event-driven engines can cap their geometric skips at the next
fault event instead of walking every step.  A fault scheduled at step
``f`` is applied after the scheduler's pick number ``f`` and before
pick ``f + 1`` (``at=0`` fires before the first pick).

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

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


class FaultPlan:
    """A fault model bound to one run: a step-indexed event stream."""

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

    def next_step(self, after: int) -> int | None:
        """The next step strictly greater than ``after`` at which this
        plan fires, or ``None`` when nothing is left."""
        raise NotImplementedError

    def actions_at(
        self, step: int, config: Configuration, alive: list[int]
    ) -> list[FaultAction]:
        """Concrete actions firing at ``step`` (may be empty — e.g. a
        deletion attempt finding no active edge)."""
        raise NotImplementedError


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
        return _OneShotPlan(self.at, "crash", self.count, (), rng)


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
        for u, v in self.edges:
            if u >= n or v >= n:
                raise SimulationError(
                    f"cut edge {(u, v)} out of range for n={n}"
                )
        return _OneShotPlan(self.at, "cut", 0, self.edges, rng)


class _OneShotPlan(FaultPlan):
    """Shared plan for the scheduled one-shot models (crash / cut)."""

    def __init__(
        self,
        at: int,
        kind: str,
        count: int,
        edges: tuple[tuple[int, int], ...],
        rng: random.Random,
    ) -> None:
        self.at = at
        self.kind = kind
        self.count = count
        self.edges = edges
        self.rng = rng
        self.horizon = at

    def next_step(self, after: int) -> int | None:
        return self.at if after < self.at else None

    def actions_at(
        self, step: int, config: Configuration, alive: list[int]
    ) -> list[FaultAction]:
        if step != self.at:
            return []
        if self.kind == "crash":
            victims = self.rng.sample(sorted(alive), min(self.count, len(alive)))
            return [FaultAction(step, "crash", nodes=tuple(sorted(victims)))]
        return [FaultAction(step, "cut", edges=self.edges)]


@register_fault(
    "edge-drop",
    params=(
        Param("rate", probability, default=None,
              help="per-step probability of one deletion attempt"),
    ),
    aliases=("edge-deletion",),
    description="each step w.p. `rate` delete one uniform active edge",
)
class EdgeDropFaults(FaultModel):
    """Sustained random edge deletion: at every scheduler step, with
    probability ``rate``, one uniformly-chosen active edge is
    deactivated.  Attempt times are geometric, hence step-indexed, so
    the skip-ahead engines handle this model exactly."""

    bounded = False

    def __init__(self, rate: float) -> None:
        try:
            self.rate = probability(rate)
        except (TypeError, ValueError) as exc:
            raise SimulationError(str(exc)) from None

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        return _DropPlan(self.rate, rng)


def _geometric_gap(after: int, rate: float, rng: random.Random) -> int:
    """The next event time of a per-step Bernoulli(``rate``) process,
    strictly after ``after`` (inverse-CDF geometric draw)."""
    u = rng.random()
    return after + 1 + int(math.log(1.0 - u) / math.log(1.0 - rate))


class _DropPlan(FaultPlan):
    def __init__(self, rate: float, rng: random.Random) -> None:
        self.rate = rate
        self.rng = rng
        self._next = _geometric_gap(0, rate, rng)

    def next_step(self, after: int) -> int | None:
        while self._next <= after:
            self._next = _geometric_gap(self._next, self.rate, self.rng)
        return self._next

    def actions_at(
        self, step: int, config: Configuration, alive: list[int]
    ) -> list[FaultAction]:
        if step != self._next:
            return []
        active = sorted(config.active_edges())
        if not active:
            return []
        u, v = active[self.rng.randrange(len(active))]
        return [FaultAction(step, "cut", edges=((u, v),))]


def _unrank_pair(index: int, n: int) -> tuple[int, int]:
    """The ``index``-th pair ``(u, v)``, ``u < v``, in lexicographic
    order over the ``n * (n - 1) / 2`` unordered pairs.

    >>> [_unrank_pair(i, 4) for i in range(6)]
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    """
    u = 0
    row = n - 1
    while index >= row:
        index -= row
        u += 1
        row -= 1
    return (u, u + 1 + index)


@register_fault(
    "edge-rate",
    params=(
        Param("rate", probability, default=None,
              help="per-edge per-step failure probability"),
    ),
    aliases=("edge-failure",),
    description="each active edge independently fails w.p. `rate` per step",
)
class EdgeRateFaults(FaultModel):
    """Per-edge independent failure: every *active* edge, at every
    scheduler step, fails independently with probability ``rate``.

    Unlike :class:`EdgeDropFaults` (one deletion attempt per step,
    whatever the network looks like), the aggregate failure pressure
    here scales with the number of active edges — the classic
    independent-link-failure model.  The construction is exact and
    step-indexed: all ``m = n(n-1)/2`` pair slots carry independent
    per-step Bernoulli(``rate``) clocks; a clock firing on an *inactive*
    pair is a no-op, so the marginal law on active edges is exactly
    independent failure.  The first firing time is geometric with
    ``p = 1 - (1 - rate)^m``, and the firing set at an event is drawn
    from the exact conditional size distribution — the skip-ahead
    engines never walk the quiet steps.

    The slot set is fixed at the compile-time population size: edges
    among nodes that *arrive* later are outside this model's reach
    (combine with ``edge-drop`` if arriving nodes must be at risk too).
    """

    bounded = False

    def __init__(self, rate: float) -> None:
        try:
            self.rate = probability(rate)
        except (TypeError, ValueError) as exc:
            raise SimulationError(str(exc)) from None

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        return _EdgeRatePlan(self.rate, n, rng)


class _EdgeRatePlan(FaultPlan):
    def __init__(self, rate: float, n: int, rng: random.Random) -> None:
        self.rate = rate
        self.n = n
        self.m = n * (n - 1) // 2
        self.rng = rng
        # P(at least one of the m clocks fires this step).
        self.p_total = -math.expm1(self.m * math.log1p(-rate))
        self._next: int | None = (
            self._gap(0) if self.m and self.p_total < 1.0 else (1 if self.m else None)
        )

    def _gap(self, after: int) -> int:
        return _geometric_gap(after, self.p_total, self.rng)

    def next_step(self, after: int) -> int | None:
        nxt = self._next
        if nxt is None:
            return None
        while nxt <= after:
            nxt = self._gap(nxt) if self.p_total < 1.0 else nxt + 1
        self._next = nxt
        return nxt

    def _firing_count(self) -> int:
        """Exact draw of the number of firing clocks conditioned on at
        least one firing: inverse-CDF walk over
        ``P(K = k) = C(m, k) rate^k (1-rate)^(m-k) / p_total``."""
        m, rate = self.m, self.rate
        roll = self.rng.random() * self.p_total
        pk = m * rate * math.pow(1.0 - rate, m - 1)  # P(K = 1)
        k = 1
        acc = pk
        while roll >= acc and k < m:
            pk *= (m - k) / (k + 1) * rate / (1.0 - rate)
            k += 1
            acc += pk
        return k

    def actions_at(
        self, step: int, config: Configuration, alive: list[int]
    ) -> list[FaultAction]:
        if step != self._next:
            return []
        k = self._firing_count()
        slots = self.rng.sample(range(self.m), k)
        dead = {u for u in range(config.n) if config.state(u) == DEAD}
        cut: list[tuple[int, int]] = []
        for slot in sorted(slots):
            u, v = _unrank_pair(slot, self.n)
            if u in dead or v in dead:
                continue
            if config.edge_state(u, v):
                cut.append((u, v))
        if not cut:
            return []
        return [FaultAction(step, "cut", edges=tuple(cut))]


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
class ByzantineFaults(FaultModel):
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

    bounded = False

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
        try:
            self.rate = probability(rate)
        except (TypeError, ValueError) as exc:
            raise SimulationError(str(exc)) from None
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
        state_pool: tuple[State, ...] = ()
        if self.mode == "random-state":
            if protocol.states is None:
                raise SimulationError(
                    f"byzantine mode 'random-state' needs an enumerable "
                    f"state set, but {protocol.name} declares none; use "
                    f"mode=replay for structured-state protocols"
                )
            state_pool = tuple(sorted(protocol.states, key=repr))
        leader_lie: State | None = None
        if self.mode == "always-leader":
            if not protocol.leader_states:
                raise SimulationError(
                    f"byzantine mode 'always-leader' needs leader_states, "
                    f"but {protocol.name} declares none"
                )
            leader_lie = min(protocol.leader_states, key=repr)
        victims = tuple(sorted(rng.sample(range(n), min(self.count, n))))
        return _ByzantinePlan(
            victims, self.rate, self.mode, self.lie,
            state_pool, leader_lie, protocol.initial_state, rng,
        )


class _ByzantinePlan(FaultPlan):
    def __init__(
        self,
        victims: tuple[int, ...],
        rate: float,
        mode: str,
        lie_p: float,
        state_pool: tuple[State, ...],
        leader_lie: State | None,
        initial_state: State,
        rng: random.Random,
    ) -> None:
        self.victims = victims
        self.rate = rate
        self.mode = mode
        self.lie_p = lie_p
        self.state_pool = state_pool
        self.leader_lie = leader_lie
        self.initial_state = initial_state
        self.rng = rng
        self._replayed: dict[int, object] = {}
        self._next = _geometric_gap(0, rate, rng)

    def next_step(self, after: int) -> int | None:
        while self._next <= after:
            self._next = _geometric_gap(self._next, self.rate, self.rng)
        return self._next

    def actions_at(
        self, step: int, config: Configuration, alive: list[int]
    ) -> list[FaultAction]:
        if step != self._next:
            return []
        rng = self.rng
        alive_set = set(alive)
        active = [v for v in self.victims if v in alive_set]
        if not active:
            return []
        victim = active[rng.randrange(len(active))]
        current = config.state(victim)
        if self.mode == "random-state":
            claim = self.state_pool[rng.randrange(len(self.state_pool))]
        elif self.mode == "replay":
            fallback = (
                self.initial_state
                if self.initial_state is not None
                else current
            )
            claim = self._replayed.get(victim, fallback)
            self._replayed[victim] = current
        else:  # always-leader
            claim = self.leader_lie
        actions = [
            FaultAction(step, "corrupt", nodes=(victim,), states=(claim,))
        ]
        if rng.random() < self.lie_p:
            nbrs = sorted(config.neighbors(victim))
            if nbrs:
                x = nbrs[rng.randrange(len(nbrs))]
                edge = (victim, x) if victim < x else (x, victim)
                actions.append(
                    FaultAction(step, "cut", edges=(edge,), silent=True)
                )
        return actions


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
        return _ArrivalPlan(self.at, self.count)


class _ArrivalPlan(FaultPlan):
    mutates_population = True

    def __init__(self, at: int, count: int) -> None:
        self.at = at
        self.count = count
        self.horizon = at

    def next_step(self, after: int) -> int | None:
        return self.at if after < self.at else None

    def actions_at(
        self, step: int, config: Configuration, alive: list[int]
    ) -> list[FaultAction]:
        if step != self.at:
            return []
        return [FaultAction(step, "arrive", count=self.count)]


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
        return _RecoverPlan(self.at + self.delay, self.count, rng)


class _RecoverPlan(FaultPlan):
    mutates_population = True

    def __init__(self, at: int, count: int, rng: random.Random) -> None:
        self.at = at
        self.count = count
        self.rng = rng
        self.horizon = at

    def next_step(self, after: int) -> int | None:
        return self.at if after < self.at else None

    def actions_at(
        self, step: int, config: Configuration, alive: list[int]
    ) -> list[FaultAction]:
        if step != self.at:
            return []
        dead = dead_nodes(config)
        if not dead:
            return []
        revived = self.rng.sample(dead, min(self.count, len(dead)))
        return [FaultAction(step, "revive", nodes=tuple(sorted(revived)))]


@register_fault(
    "churn",
    params=(
        Param("rate", probability, default=None,
              help="per-step probability of one departure+arrival pair"),
    ),
    aliases=("turnover",),
    description="each step w.p. `rate` crash one node and add one fresh node",
)
class ChurnFaults(FaultModel):
    """Sustained population turnover: at every scheduler step, with
    probability ``rate``, one uniformly-chosen alive node crash-stops
    and one fresh node joins in the protocol's initial state — paired
    departures and arrivals, so the alive population size is invariant
    while its membership keeps rotating.  Event times are geometric,
    hence step-indexed, so the skip-ahead engines handle churn exactly."""

    bounded = False

    def __init__(self, rate: float) -> None:
        try:
            self.rate = probability(rate)
        except (TypeError, ValueError) as exc:
            raise SimulationError(str(exc)) from None

    def compile(
        self, n: int, rng: random.Random, protocol: Protocol | None = None
    ) -> FaultPlan:
        return _ChurnPlan(self.rate, rng)


class _ChurnPlan(FaultPlan):
    mutates_population = True

    def __init__(self, rate: float, rng: random.Random) -> None:
        self.rate = rate
        self.rng = rng
        self._next = _geometric_gap(0, rate, rng)

    def next_step(self, after: int) -> int | None:
        while self._next <= after:
            self._next = _geometric_gap(self._next, self.rate, self.rng)
        return self._next

    def actions_at(
        self, step: int, config: Configuration, alive: list[int]
    ) -> list[FaultAction]:
        if step != self._next or not alive:
            return []
        victim = sorted(alive)[self.rng.randrange(len(alive))]
        return [
            FaultAction(step, "crash", nodes=(victim,)),
            FaultAction(step, "arrive", count=1),
        ]


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
        self, step: int, config: Configuration, alive: list[int]
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
