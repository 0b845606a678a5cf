"""The Network Constructor (NET) protocol abstraction — paper Section 3.1.

A NET is a 4-tuple ``(Q, q0, Qout, delta)`` where ``Q`` is a finite set of
node-states, ``q0`` the common initial state, ``Qout`` the output states and
``delta : Q x Q x {0,1} -> Q x Q x {0,1}`` the transition function applied
to the two interacting nodes and the edge joining them.

Two protocol flavours are supported:

* :class:`TableProtocol` — the paper's presentation style: an explicit
  dictionary of *effective* rules ``(a, b, c) -> (a', b', c')``; every triple
  not listed is an ineffective identity transition.
* subclasses overriding :meth:`Protocol.delta` — used by the generic
  constructors of Section 6 whose states are structured tuples and whose
  rules are more conveniently expressed as code.

The model's symmetry conventions are implemented in :func:`resolve`:
``delta`` is a partial function defined at ``(a, a, c)`` for all ``a`` and at
*either* ``(a, b, c)`` or ``(b, a, c)`` for distinct ``a, b``.  When only the
swapped orientation is defined the roles of the two interacting nodes are
exchanged.  The only randomized symmetry breaking in the deterministic model
occurs for rules ``(a, a, c) -> (a', b', c')`` with ``a' != b'``: the node
receiving ``a'`` is drawn equiprobably (paper Section 3.1).

The *probabilistic* extension (class PREL, Definition 4) is supported by
letting a rule map to a distribution over outcomes, each with rational
probability; the paper only requires fair coins (probability 1/2) but the
implementation accepts arbitrary distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Mapping

from repro.core.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import random

    from repro.core.configuration import Configuration

#: A node state.  Any hashable value; plain strings for the paper's explicit
#: protocols, tuples for the structured states of the generic constructors.
State = Hashable

#: An edge state: 0 (inactive) or 1 (active) — the "on/off" model.
EdgeState = int


@dataclass(frozen=True)
class Outcome:
    """The right-hand side of a transition: new states for both nodes and
    the edge.

    ``a`` is the new state of the node that matched the first position of
    the rule, ``b`` of the second, and ``edge`` the new edge state.
    """

    a: State
    b: State
    edge: EdgeState

    def __post_init__(self) -> None:
        if self.edge not in (0, 1):
            raise ProtocolError(f"edge state must be 0 or 1, got {self.edge!r}")

    def as_triple(self) -> tuple[State, State, EdgeState]:
        return (self.a, self.b, self.edge)


#: A distribution over outcomes: sequence of ``(probability, outcome)``.
Distribution = tuple[tuple[float, Outcome], ...]


def deterministic(a: State, b: State, edge: EdgeState) -> Distribution:
    """A point distribution on a single outcome."""
    return ((1.0, Outcome(a, b, edge)),)


def coin_flip(
    heads: tuple[State, State, EdgeState],
    tails: tuple[State, State, EdgeState],
) -> Distribution:
    """A fair-coin rule: probability 1/2 each — the PREL primitive."""
    return ((0.5, Outcome(*heads)), (0.5, Outcome(*tails)))


def _normalize_rhs(rhs: object) -> Distribution:
    """Accept an ``Outcome``, a bare triple, or a distribution and return a
    normalized :data:`Distribution`."""
    if isinstance(rhs, Outcome):
        return ((1.0, rhs),)
    if isinstance(rhs, tuple) and len(rhs) == 3 and rhs[2] in (0, 1):
        # A bare (a', b', c') triple.  Distributions are passed as lists or
        # via the deterministic()/coin_flip() helpers, whose elements are
        # (probability, outcome) pairs and therefore never match this shape.
        return ((1.0, Outcome(*rhs)),)
    # A distribution: iterable of (prob, outcome-ish).
    if not isinstance(rhs, Iterable):
        raise ProtocolError(f"cannot interpret rule right-hand side: {rhs!r}")
    dist = []
    total = 0.0
    for prob, outcome in rhs:
        if not isinstance(outcome, Outcome):
            outcome = Outcome(*outcome)
        if prob <= 0:
            raise ProtocolError(f"probabilities must be positive, got {prob}")
        dist.append((float(prob), outcome))
        total += prob
    if abs(total - 1.0) > 1e-9:
        raise ProtocolError(f"outcome probabilities sum to {total}, expected 1")
    return tuple(dist)


class Protocol:
    """Base class for network constructors.

    Subclasses must provide :attr:`initial_state` and either override
    :meth:`delta` or populate a rule table via :class:`TableProtocol`.

    Attributes
    ----------
    name:
        Human-readable protocol name (used in reports and benchmarks).
    initial_state:
        The common initial node state ``q0``.
    output_states:
        The set ``Qout``; ``None`` means *all* states are output states,
        which is the convention for every protocol in the paper except
        Graph-Replication.
    states:
        The declared finite state set ``Q`` when enumerable; ``None`` for
        structured-state protocols (the set is still finite for any fixed
        ``n`` but not conveniently enumerable).
    leader_states:
        The states marking the construction's current leader(s), when the
        protocol has that notion; ``None`` when it does not.  Consumed by
        the adversarial machinery — the ``targeted:aim=leader`` scheduler
        starves these nodes and the ``byzantine:mode=always-leader`` fault
        model impersonates them.
    fault_claims:
        The fault families this protocol *claims* to survive, as a tuple
        of ``"crash"`` / ``"edge-loss"`` markers.  Purely declarative:
        the static verifier (:mod:`repro.verify`) reads it to decide
        which notification hooks must cover the edge-capable states and
        whether to model-check adversarial edge-deletion recovery.  The
        default — no claims — matches the paper's fault-free setting.
    lint_waivers:
        Lint suppressions honored by :mod:`repro.verify.lints`.  Each
        entry is either a bare finding code (``"dead-rule"``) waiving
        every finding of that code, or ``"code:subject"`` waiving one
        specific finding (the subject strings appear verbatim in lint
        reports).  Use it to annotate *intentionally* unreachable states
        or rules; an empty set means every finding is reportable.
    """

    name: str = "protocol"
    initial_state: State = None
    output_states: frozenset | None = None
    states: frozenset | None = None
    leader_states: frozenset | None = None
    fault_claims: tuple[str, ...] = ()
    lint_waivers: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Transition function
    # ------------------------------------------------------------------
    def delta(self, a: State, b: State, c: EdgeState) -> Distribution | None:
        """Return the distribution for ordered triple ``(a, b, c)``.

        Return ``None`` when the partial function is undefined at this
        orientation (the simulator will then try ``(b, a, c)``).  An
        undefined triple in *both* orientations is an ineffective identity.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Effectiveness
    # ------------------------------------------------------------------
    def is_effective(self, a: State, b: State, c: EdgeState) -> bool:
        """True if an interaction of a pair in states ``(a, b)`` over an
        edge in state ``c`` can change anything (paper: an *effective*
        transition changes at least one of the three components)."""
        resolved = resolve(self, a, b, c)
        if resolved is None:
            return False
        dist, swapped = resolved
        if swapped:
            a, b = b, a
        return any(out.as_triple() != (a, b, c) for _, out in dist)

    # ------------------------------------------------------------------
    # Stabilization hooks (used by the simulator and the benchmarks)
    # ------------------------------------------------------------------
    def stabilized(
        self, config: Configuration
    ) -> bool:  # pragma: no cover - hook
        """Protocol-specific certificate that the *output graph* can never
        change again.  Default: no certificate (the simulator then relies
        on quiescence — an empty effective-pair set)."""
        return False

    def target_reached(
        self, config: Configuration
    ) -> bool:  # pragma: no cover - hook
        """True when the output graph is a correct target construction.
        Used by tests; defaults to :meth:`stabilized`."""
        return self.stabilized(config)

    def on_neighbor_crash(self, state: State) -> State | None:
        """Fault-notification hook (Fault Tolerant Network Constructors,
        Michail, Spirakis & Theofilatos 2019, Section 5): when a node
        crash-stops, every surviving *neighbor* (a node that held an
        active edge to the victim) is told so, once per lost edge, and
        may change state in response.

        Receives the survivor's current state and returns its new state,
        or ``None`` to keep it unchanged.  The default — ``None`` for
        every state — models the paper's notification-free setting, in
        which constructions like the spanning line are not fault
        tolerant; fault-aware protocols (e.g.
        :class:`repro.protocols.ft_line.FTGlobalLine`) override it to
        trigger their local repair machinery.  All engines apply the
        hook identically, immediately after the victim's edges are
        removed, so fault-aware runs stay distributionally equivalent
        across engines.
        """
        return None

    def on_edge_loss(self, state: State) -> State | None:
        """Edge-deletion notification hook — the edge analogue of
        :meth:`on_neighbor_crash`.  When the *environment* deletes an
        active edge (the ``cut``, ``edge-drop`` and ``edge-rate`` fault
        models), both surviving endpoints are told so and may change
        state in response.

        Receives the endpoint's current state and returns its new state,
        or ``None`` to keep it unchanged.  The default — ``None`` for
        every state — models silent edge removal, under which the 2019
        fault-tolerance constructions are provably stuck: a deletion can
        strand a leaderless fragment that no rule ever touches.
        Fault-aware protocols override it to start their repair
        machinery, exactly as for crash notifications.  All engines
        apply the hook identically, immediately after the edge is
        deactivated.  **Byzantine** edge-flag lies
        (:class:`repro.core.faults.ByzantineFaults`) drop edges
        *silently* — they bypass this hook, which is what makes them
        strictly nastier than environment cuts.
        """
        return None

    def initial_configuration(self, n: int) -> Configuration:
        """Build the initial configuration for ``n`` nodes.

        The default puts every node in :attr:`initial_state` with all edges
        inactive; protocols with non-uniform initial conditions (e.g.
        Graph-Replication) override this.
        """
        from repro.core.configuration import Configuration

        return Configuration.uniform(n, self.initial_state)

    def compile(self) -> "CompiledProtocol":
        """An interned-state view of this protocol for the hot loop of
        :class:`~repro.core.simulator.IndexedSimulator`: states become
        dense ints and ``resolve``/effectiveness results are memoized per
        triple, so table *and* code-defined ``delta`` protocols both pay
        at most one resolution per distinct ``(a, b, c)``.

        A protocol that declares :attr:`states` compiles once: every run
        on this instance shares the table, with its resolutions and the
        indexed engine's pair-class and plan memos.  Its ids are fixed
        at compile time and every memo is a pure function of the rules,
        so a run never depends on which runs came before it.  A table
        that had to intern a state outside the declared set (say, from
        an ``init`` override) is not handed out again: the next call
        compiles a fresh one.  Lazily interning protocols (``states`` is
        ``None``) get a fresh table per call, because their ids follow
        encounter order."""
        compiled: CompiledProtocol | None = self.__dict__.get("_compiled")
        if compiled is None or not compiled.closed:
            compiled = CompiledProtocol(self)
            if self.states is not None:
                self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class TableProtocol(Protocol):
    """A protocol given by an explicit table of effective rules.

    Parameters
    ----------
    name:
        Protocol name.
    initial_state:
        The initial state ``q0``.
    rules:
        Mapping from ordered triples ``(a, b, c)`` to an outcome triple, an
        :class:`Outcome`, or a distribution ``[(p, outcome), ...]``.
    states:
        Optional explicit state set; inferred from the rules and the
        initial state when omitted.
    output_states:
        Optional ``Qout``; ``None`` means all states are output.
    """

    def __init__(
        self,
        name: str,
        initial_state: State,
        rules: Mapping[tuple[State, State, EdgeState], object],
        states: Iterable[State] | None = None,
        output_states: Iterable[State] | None = None,
    ) -> None:
        self.name = name
        self.initial_state = initial_state
        self._table: dict[tuple[State, State, EdgeState], Distribution] = {}
        for (a, b, c), rhs in rules.items():
            if c not in (0, 1):
                raise ProtocolError(f"rule key edge state must be 0/1: {(a, b, c)!r}")
            if a != b and (b, a, c) in rules:
                raise ProtocolError(
                    f"rules defined at both orientations of ({a!r}, {b!r}, {c})"
                )
            self._table[(a, b, c)] = _normalize_rhs(rhs)
        inferred: set[State] = {initial_state}
        for (a, b, _), dist in self._table.items():
            inferred.update((a, b))
            for _, out in dist:
                inferred.update((out.a, out.b))
        self.states = frozenset(states) if states is not None else frozenset(inferred)
        if not inferred <= self.states:
            raise ProtocolError(
                f"rules mention states outside the declared set: "
                f"{sorted(map(repr, inferred - self.states))}"
            )
        self.output_states = (
            frozenset(output_states) if output_states is not None else None
        )
        # Precomputed set of effective ordered triples, both orientations,
        # for O(1) effectiveness checks in the event-driven simulator.
        self._effective: set[tuple[State, State, EdgeState]] = set()
        for (a, b, c), dist in self._table.items():
            if any(out.as_triple() != (a, b, c) for _, out in dist):
                self._effective.add((a, b, c))
                self._effective.add((b, a, c))

    @property
    def size(self) -> int:
        """The protocol size |Q| (the paper's measure of protocol size)."""
        return len(self.states)  # type: ignore[arg-type]

    def delta(self, a: State, b: State, c: EdgeState) -> Distribution | None:
        return self._table.get((a, b, c))

    def is_effective(self, a: State, b: State, c: EdgeState) -> bool:
        return (a, b, c) in self._effective

    def rules(self) -> dict[tuple[State, State, EdgeState], Distribution]:
        """A copy of the rule table (effective rules only)."""
        return dict(self._table)


#: A compiled distribution: ``(probability, (a_id, b_id, edge))`` tuples.
CompiledDistribution = tuple[tuple[float, tuple[int, int, int]], ...]

#: What one change does to an ordered pair in states ``(a, b)`` over an
#: edge in state ``c`` (see :meth:`CompiledProtocol.change`):
#: ``(new_a, new_b, new_edge, a_changed, b_changed, edge_changed, swap,
#: output, dirty)``.
Transition = tuple[int, int, int, bool, bool, bool, bool, bool, frozenset[int]]


class CompiledProtocol:
    """Interned, memoized transition table over a :class:`Protocol`.

    States are interned to dense ints (``intern`` / ``state_of``); the
    partial-function resolution of :func:`resolve` and the effectiveness
    predicate are flattened into dicts keyed by int triples.  For
    protocols with an enumerable state set the interning is eager and
    deterministic (sorted by ``repr``, so seeded runs reproduce across
    processes despite hash randomization); structured-state protocols
    (``generic/``, ``tm/``) intern lazily in encounter order and memoize
    each ``delta`` resolution the first time a triple is seen — the
    transparent fallback for code-defined transition functions.

    The table also owns the rule-only memos of
    :class:`~repro.core.indexing.PairClassIndex`: ``pair_classes``,
    ``plans``, ``visits`` and their budgets ``plan_cells`` and
    ``key_cells`` (see :mod:`repro.core.indexing`), so every index built
    over one table shares them, the index's :attr:`count_only` states,
    whether the rules hold a state swap (:attr:`swaps`), the indexed
    walk's per-triple change records (:meth:`transition`) and, for an
    eagerly interned table, its pair keys (:attr:`pair_keys`).
    """

    __slots__ = (
        "protocol", "_ids", "_states", "_resolved", "_effective", "_declared",
        "_count_only", "_swaps", "_transitions", "_changes", "pair_keys",
        "pair_classes", "plans", "visits", "plan_cells", "key_cells",
    )

    def __init__(self, protocol: Protocol) -> None:
        self.protocol = protocol
        self._ids: dict[State, int] = {}
        self._states: list[State] = []
        self._resolved: dict[
            tuple[int, int, int], tuple[CompiledDistribution, bool] | None
        ] = {}
        self._effective: dict[tuple[int, int, int], bool] = {}
        self._transitions: dict[tuple[int, int, int], Transition | tuple[()]] = {}
        self._changes: dict[tuple[int, int, int, int, int, int], Transition] = {}
        #: ``pair_keys[a][b]`` is the id pair ``(min(a, b), max(a, b))``,
        #: one shared tuple per pair, for every interned id; kept only for
        #: an eagerly interned table (``None`` for a lazy one, whose ids
        #: may run into the thousands)
        self.pair_keys: list[list[tuple[int, int]]] | None = (
            [] if protocol.states is not None else None
        )
        #: (lo, hi) id pair -> PairClassIndex's entry for it
        self.pair_classes: dict[tuple[int, int], Any] = {}
        #: refresh_involving's key -> its memoized visit plan
        self.plans: dict[tuple[int, ...], Any] = {}
        #: a visit order -> its plan, shared by every key of that order
        self.visits: dict[tuple[int, ...], Any] = {}
        #: cells ``visits`` holds, and cells of ``plans``' keys (each
        #: bounded by indexing._PLAN_CAP)
        self.plan_cells = 0
        self.key_cells = 0
        self._declared: int | None = None
        self._count_only: frozenset[int] | None = None
        self._swaps: bool | None = None
        if protocol.states is not None:
            for state in sorted(protocol.states, key=repr):
                self.intern(state)
            self._declared = len(self._states)

    @property
    def n_states(self) -> int:
        """Number of distinct states interned so far."""
        return len(self._states)

    @property
    def closed(self) -> bool:
        """True while the table is eagerly interned and has interned no
        state beyond the declared set: its ids are then those of a fresh
        compile, so runs may share it."""
        return self._declared == len(self._states)

    def intern(self, state: State) -> int:
        """The dense id of ``state``, assigning a fresh one if new (and,
        on an eagerly interned table, its :attr:`pair_keys`)."""
        i = self._ids.get(state)
        if i is None:
            i = len(self._states)
            self._ids[state] = i
            self._states.append(state)
            keys = self.pair_keys
            if keys is not None:
                row = [(a, i) for a in range(i)]
                for known, key in zip(keys, row):
                    known.append(key)
                row.append((i, i))
                keys.append(row)
        return i

    def intern_all(self, states: list[State]) -> list[int]:
        """The ids of ``states``, in order: :meth:`intern` on each, with
        one dict lookup per state when none is new."""
        try:
            return list(map(self._ids.__getitem__, states))
        except KeyError:
            return [self.intern(state) for state in states]

    def state_of(self, i: int) -> State:
        """The raw state behind id ``i``."""
        return self._states[i]

    @property
    def count_only(self) -> frozenset[int]:
        """The ids of the declared states that form no effective non-edge
        class with any declared state, or none while the table is not
        :attr:`closed`.  No non-edge pair draw can reach such a state, so
        :class:`~repro.core.indexing.PairClassIndex` counts its nodes
        without filing them.

        Computed once, from the raw protocol's ``is_effective`` over the
        declared states, so asking interns nothing."""
        if not self.closed:
            return frozenset()
        found = self._count_only
        if found is None:
            states = self._states
            effective = self.protocol.is_effective
            drawable: set[int] = set()
            for i, a in enumerate(states):
                for j in range(i, len(states)):
                    if (i not in drawable or j not in drawable) and effective(
                        a, states[j], 0
                    ):
                        drawable.update((i, j))
            found = self._count_only = frozenset(
                i for i in range(len(states)) if i not in drawable
            )
        return found

    @property
    def swaps(self) -> bool:
        """True when some rule between two distinct declared states may
        exchange them and keep their edge, ``(a, b, c) -> (b, a, c)``:
        such a change leaves every state count and the edge count as
        they were.  False while the table is not :attr:`closed`.

        Computed once, from the raw protocol's ``delta`` over the
        declared states, so asking interns nothing."""
        if not self.closed:
            return False
        found = self._swaps
        if found is None:
            states = self._states
            delta = self.protocol.delta
            found = self._swaps = any(
                out.as_triple() == (b, a, c)
                for a in states
                for b in states
                if a != b
                for c in (0, 1)
                for _, out in delta(a, b, c) or ()
            )
        return found

    def resolved(
        self, a: int, b: int, c: EdgeState
    ) -> tuple[CompiledDistribution, bool] | None:
        """Memoized :func:`resolve` over interned ids.

        Returns ``(distribution, swapped)`` with outcome states interned,
        or ``None`` for an ineffective identity triple."""
        key = (a, b, c)
        try:
            return self._resolved[key]
        except KeyError:
            pass
        raw = resolve(self.protocol, self._states[a], self._states[b], c)
        if raw is None:
            compiled = None
        else:
            dist, swapped = raw
            compiled = (
                tuple(
                    (p, (self.intern(out.a), self.intern(out.b), out.edge))
                    for p, out in dist
                ),
                swapped,
            )
        self._resolved[key] = compiled
        return compiled

    def transition(
        self, a: int, b: int, c: EdgeState
    ) -> Transition | tuple[()]:
        """The memoized :meth:`change` record of the effective ordered
        triple ``(a, b, c)`` when its rule has one outcome and no
        symmetric coin, so the record is all a change of it does; ``()``
        when its rule draws (several outcomes, or ``a == b`` with
        distinct new states): the walk then draws the outcome as it
        always has, and looks up the :meth:`change` it drew."""
        key = (a, b, c)
        try:
            return self._transitions[key]
        except KeyError:
            pass
        rule = self.resolved(a, b, c)
        record: Transition | tuple[()] = ()
        if rule is not None and len(rule[0]) == 1:
            dist, swapped = rule
            new_a, new_b, new_edge = dist[0][1]
            if swapped:
                new_a, new_b = new_b, new_a
            if a != b or new_a == new_b:
                record = self.change(a, b, c, new_a, new_b, new_edge)
        self._transitions[key] = record
        return record

    def change(
        self, a: int, b: int, c: EdgeState, new_a: int, new_b: int,
        new_edge: EdgeState,
    ) -> Transition:
        """Everything the indexed walk decides about one change of the
        pair in states ``(a, b)`` over an edge in state ``c`` to ``(new_a,
        new_b, new_edge)``, outcome oriented to the pair: the new states
        and edge; which of the two nodes and the edge changed; whether
        it is a *swap* (each node takes the other's state, and the edge
        stays), which leaves every state count and the edge count as
        they were; whether it may change the output graph, decided from
        the protocol's ``output_states`` as
        :func:`repro.core.simulator._output_affected` decides it; and
        the *dirty* states, the old and new states of the changed nodes,
        as the frozenset copy of the set of them, whose iteration order
        is the order a refresh visits them in (empty when no node
        changed).  Memoized per change, so a rule that draws its
        outcome is described once per outcome it draws."""
        key = (a, b, c, new_a, new_b, new_edge)
        try:
            return self._changes[key]
        except KeyError:
            pass
        a_changed = new_a != a
        b_changed = new_b != b
        edge_changed = new_edge != c
        swap = (
            a_changed and b_changed and new_a == b and new_b == a
            and not edge_changed
        )
        out = self.protocol.output_states
        if out is None:
            output = edge_changed
        else:
            raw = self._states
            output = bool(
                (a_changed and (raw[a] in out) != (raw[new_a] in out))
                or (b_changed and (raw[b] in out) != (raw[new_b] in out))
                or (edge_changed and raw[new_a] in out and raw[new_b] in out)
            )
        # A frozenset copied from the set keeps its table, so it iterates,
        # and merges into a refresh's targets, exactly as the set would.
        if a_changed and b_changed:
            dirty = frozenset({a, new_a, b, new_b})
        elif a_changed:
            dirty = frozenset({a, new_a})
        elif b_changed:
            dirty = frozenset({b, new_b})
        else:
            dirty = frozenset()
        record = self._changes[key] = (
            new_a, new_b, new_edge, a_changed, b_changed, edge_changed, swap,
            output, dirty,
        )
        return record

    def is_effective(self, a: int, b: int, c: EdgeState) -> bool:
        """Memoized effectiveness over interned ids (symmetric in a, b)."""
        key = (a, b, c)
        try:
            return self._effective[key]
        except KeyError:
            pass
        res = self.resolved(a, b, c)
        if res is None:
            effective = False
        else:
            dist, swapped = res
            identity = (b, a, c) if swapped else (a, b, c)
            effective = any(out != identity for _, out in dist)
        self._effective[key] = effective
        self._effective[(b, a, c)] = effective
        return effective


def resolve(
    protocol: Protocol, a: State, b: State, c: EdgeState
) -> tuple[Distribution, bool] | None:
    """Resolve the partial transition function at an unordered interaction.

    Returns ``(distribution, swapped)`` where ``swapped`` indicates the rule
    was found at the ``(b, a, c)`` orientation, so the first component of
    each outcome applies to the *second* node.  Returns ``None`` when the
    triple is undefined in both orientations (ineffective identity).
    """
    dist = protocol.delta(a, b, c)
    if dist is not None:
        return dist, False
    if a != b:
        dist = protocol.delta(b, a, c)
        if dist is not None:
            return dist, True
    return None


def sample_outcome(dist: Distribution, rng: random.Random) -> Outcome:
    """Draw an outcome from a distribution using ``rng.random()``."""
    if len(dist) == 1:
        return dist[0][1]
    roll = rng.random()
    acc = 0.0
    for prob, outcome in dist:
        acc += prob
        if roll < acc:
            return outcome
    return dist[-1][1]
