"""Configurations of a network-constructor system — paper Section 3.1.

A configuration is a mapping ``C : V ∪ E -> Q ∪ {0, 1}`` assigning a state
to every node and an on/off state to every edge of the complete interaction
graph.  Nodes are the integers ``0 .. n-1``.  Only *active* edges are stored
(as adjacency sets), since all edges start inactive and constructions are
typically sparse.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.errors import SimulationError
from repro.core.graphs import nx
from repro.core.protocol import State

#: The adjacency of every node that has never had an active edge.  Shared
#: by all such nodes of all configurations, so it must stay immutable.
_NO_EDGES: frozenset[int] = frozenset()


def census_pair_key(a: State, b: State) -> tuple[State, State]:
    """Canonical unordered key for a state pair (sorted by ``repr``, the
    same total order :meth:`~repro.core.protocol.Protocol.compile` uses to
    intern states)."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


@dataclass(frozen=True, eq=True)
class Census:
    """Anonymous view of a configuration: the state histogram plus the
    per-class active-edge histogram.

    This is the representation the paper itself reasons over — every
    protocol in the source paper is anonymous, so the dynamics are a
    function of ``(state -> count)`` and, for edge-aware rules, of how
    many active edges join each unordered state pair.  Memory is
    O(present states + present edge classes), independent of ``n``.

    ``counts`` maps each present state to its node count; ``edges`` maps
    each unordered state pair (keyed via :func:`census_pair_key`) to its
    active-edge count.  Zero entries are omitted, so two censuses taken
    from configurations with the same anonymous content compare equal.
    """

    counts: dict[State, int] = field(default_factory=dict)
    edges: dict[tuple[State, State], int] = field(default_factory=dict)

    @property
    def population(self) -> int:
        """Total number of nodes (including any ``DEAD`` placeholder)."""
        return sum(self.counts.values())

    @property
    def n_edges(self) -> int:
        """Total number of active edges."""
        return sum(self.edges.values())

    def class_pairs(self, a: State, b: State) -> int:
        """Number of node pairs in the unordered class ``{a, b}``."""
        na = self.counts.get(a, 0)
        if a == b:
            return na * (na - 1) // 2
        return na * self.counts.get(b, 0)

    def validate(self) -> None:
        """Raise :class:`SimulationError` if the census is not realizable
        as a simple graph (negative counts, edges on absent states, or
        more class edges than class pairs)."""
        for s, c in self.counts.items():
            if c < 0:
                raise SimulationError(f"negative count for state {s!r}: {c}")
        for (a, b), e in self.edges.items():
            if e < 0:
                raise SimulationError(f"negative edge count for {(a, b)!r}: {e}")
            if e > self.class_pairs(a, b):
                raise SimulationError(
                    f"edge class {(a, b)!r} has {e} edges but only "
                    f"{self.class_pairs(a, b)} pairs"
                )


class Configuration:
    """Mutable system configuration: node states plus the active-edge set.

    Storage is one state list, one adjacency entry per node, and a state
    histogram (state -> count), kept incrementally.  Its keys keep
    first-appearance order: a state enters when its first node does and
    leaves with its last, so :meth:`state_counts` and :meth:`census`
    list states in that order.  The nodes of each state are filed in
    per-state ``set`` buckets only when :meth:`nodes_in_state` is first
    called; from then on every mutation keeps them in step.  Costs:

    * O(1): :meth:`state`, :meth:`set_state`, :meth:`count_in_state`,
      :meth:`set_edge`, :meth:`edge_state`, :meth:`degree`,
      :meth:`add_node`.  The ``stabilized`` certificates poll
      :meth:`count_in_state` every effective step.
    * O(distinct states): :meth:`state_counts`, and :meth:`census` when
      no edge is active.
    * O(n) in C loops, with no Python-level loop and no container per
      node: :meth:`uniform`, :meth:`from_census` plus one
      :meth:`set_edge` per edge, and the ``Configuration(states,
      edges)`` constructor plus one :meth:`set_edge` per edge.
    * O(n) in one Python loop: :meth:`copy`, which copies only the sets
      of nodes with an active edge, and the first
      :meth:`nodes_in_state` call.

    A node that has never had an active edge holds one shared empty
    ``frozenset``.  :meth:`set_edge` replaces it in place with a fresh
    ``set`` on the node's first activation, and the node keeps that set
    when its degree falls back to zero.  The shared adjacency must be
    immutable: an ``add`` on it would give the edge to every edgeless
    node of every configuration.  Each node's set sees the same adds and
    discards, in the same order, as with one set per node from the
    start, so :meth:`active_edges` iterates in the same order.  The
    adjacency list and the histogram are never rebound: an engine may
    hold them and re-read their entries.

    Configurations are mutable and therefore **unhashable** (``__hash__``
    is explicitly ``None``); use :meth:`signature` to obtain an immutable
    snapshot usable as a dict key or set member.

    >>> config = Configuration(["b", "a", "b"], [(0, 1)])
    >>> config.state_counts()
    {'b': 2, 'a': 1}
    >>> config.set_state(0, "a")
    >>> config.state_counts(), config.count_in_state("a")
    ({'b': 1, 'a': 2}, 2)
    >>> config.nodes_in_state("a")
    [0, 1]
    >>> config.set_state(2, "c")
    >>> config.state_counts(), config.nodes_in_state("b"), config.nodes_in_state("c")
    ({'a': 2, 'c': 1}, [], [2])

    Parameters
    ----------
    states:
        A sequence assigning a state to each node ``0 .. n-1``.
    active_edges:
        Iterable of node pairs that are initially active.
    """

    __slots__ = ("_states", "_adj", "_n_active", "_counts", "_nodes")

    def __init__(
        self,
        states: Iterable[State],
        active_edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        self._states: list[State] = list(states)
        self._adj: list[set[int] | frozenset[int]] = [_NO_EDGES] * len(self._states)
        self._n_active = 0
        self._counts: dict[State, int] = dict(Counter(self._states))
        #: Per-state node sets, built by the first nodes_in_state call.
        self._nodes: dict[State, set[int]] | None = None
        for u, v in active_edges:
            self.set_edge(u, v, 1)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_blocks(cls, blocks: Iterable[tuple[State, int]]) -> "Configuration":
        """No active edges, and one contiguous block of node ids per
        ``(state, count)`` pair, in the given order.  The states must be
        distinct; empty blocks are skipped."""
        cfg = cls.__new__(cls)
        states: list[State] = []
        counts: dict[State, int] = {}
        for state, count in blocks:
            if count:
                states += [state] * count
                counts[state] = count
        cfg._states = states
        cfg._adj = [_NO_EDGES] * len(states)
        cfg._n_active = 0
        cfg._counts = counts
        cfg._nodes = None
        return cfg

    @classmethod
    def uniform(cls, n: int, state: State) -> "Configuration":
        """All ``n`` nodes in ``state``, all edges inactive — the model's
        canonical initial configuration."""
        if n < 1:
            raise SimulationError(f"population size must be >= 1, got {n}")
        return cls._from_blocks([(state, n)])

    @classmethod
    def from_census(cls, census: Census) -> "Configuration":
        """Materialize a canonical configuration realizing ``census``.

        Node ids are assigned in contiguous blocks, one block per state in
        ``repr`` order; each edge class activates its edges over the first
        pairs of the class in lexicographic order.  The reconstruction is
        deterministic and census-faithful — ``from_census(c).census() == c``
        for any realizable census — but deliberately *not*
        geometry-faithful: anonymity means the census does not determine
        which concrete graph carried it.
        """
        census.validate()
        n = census.population
        if n < 1:
            raise SimulationError("census population must be >= 1")
        ordered = sorted(census.counts, key=repr)
        offsets: dict[State, int] = {}
        offset = 0
        for s in ordered:
            offsets[s] = offset
            offset += census.counts[s]
        cfg = cls._from_blocks((s, census.counts[s]) for s in ordered)
        for a, b in sorted(census.edges, key=repr):
            count = census.edges[(a, b)]
            oa, ob = offsets[a], offsets[b]
            na, nb = census.counts[a], census.counts[b]
            if a == b:
                pairs: Iterator[tuple[int, int]] = itertools.combinations(
                    range(oa, oa + na), 2
                )
            else:
                pairs = (
                    (u, v)
                    for u in range(oa, oa + na)
                    for v in range(ob, ob + nb)
                )
            for u, v in itertools.islice(pairs, count):
                cfg.set_edge(u, v, 1)
        return cfg

    def census(self) -> Census:
        """The anonymous :class:`Census` of this configuration: state
        histogram plus per-class active-edge histogram."""
        edges: dict[tuple[State, State], int] = {}
        if self._n_active:
            for u, v in self.active_edges():
                key = census_pair_key(self._states[u], self._states[v])
                edges[key] = edges.get(key, 0) + 1
        return Census(dict(self._counts), edges)

    def copy(self) -> "Configuration":
        clone = Configuration.__new__(Configuration)
        clone._states = list(self._states)
        # A node whose set was emptied gets the shared empty adjacency:
        # its next activation starts a fresh set, as it would in a set()
        # copy of the empty set.
        clone._adj = [set(a) if a else _NO_EDGES for a in self._adj]
        clone._n_active = self._n_active
        clone._counts = dict(self._counts)
        clone._nodes = None
        return clone

    def add_node(self, state: State) -> int:
        """Grow the population by one node in ``state`` (no active edges)
        and return its id — the dynamic-population primitive behind the
        ``arrive``/``churn`` fault models.  Existing node ids and edges
        are untouched; engines re-derive their pair counts after every
        population event."""
        u = len(self._states)
        self._states.append(state)
        self._adj.append(_NO_EDGES)
        self._counts[state] = self._counts.get(state, 0) + 1
        nodes = self._nodes
        if nodes is not None:
            bucket = nodes.get(state)
            if bucket is None:
                nodes[state] = {u}
            else:
                bucket.add(u)
        return u

    # ------------------------------------------------------------------
    # Node states
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Population size."""
        return len(self._states)

    def state(self, u: int) -> State:
        return self._states[u]

    def set_state(self, u: int, state: State) -> None:
        old = self._states[u]
        if old == state:
            return
        counts = self._counts
        left = counts[old] - 1
        if left:
            counts[old] = left
        else:
            del counts[old]
        counts[state] = counts.get(state, 0) + 1
        self._states[u] = state
        nodes = self._nodes
        if nodes is not None:
            bucket = nodes[old]
            bucket.discard(u)
            if not bucket:
                del nodes[old]
            bucket = nodes.get(state)
            if bucket is None:
                nodes[state] = {u}
            else:
                bucket.add(u)

    def states(self) -> list[State]:
        """A copy of the node-state vector."""
        return list(self._states)

    def state_counts(self) -> dict[State, int]:
        """Multiset of node states (histogram) — O(distinct states)."""
        return dict(self._counts)

    def count_in_state(self, state: State) -> int:
        """Number of nodes currently in ``state`` — O(1)."""
        return self._counts.get(state, 0)

    def nodes_in_state(self, state: State) -> list[int]:
        """Nodes currently in ``state``, ascending.

        The first call files every node in a per-state ``set``, O(n);
        later calls cost O(k log k) for the ``k`` nodes returned, as
        every mutation keeps the sets in step.  A :meth:`copy` starts
        without them.
        """
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = {}
            for u, s in enumerate(self._states):
                bucket = nodes.get(s)
                if bucket is None:
                    nodes[s] = {u}
                else:
                    bucket.add(u)
        bucket = nodes.get(state)
        return sorted(bucket) if bucket is not None else []

    def nodes_where(self, predicate) -> list[int]:
        """Nodes whose state satisfies ``predicate``."""
        return [u for u, s in enumerate(self._states) if predicate(s)]

    # ------------------------------------------------------------------
    # Edge states
    # ------------------------------------------------------------------
    def edge_state(self, u: int, v: int) -> int:
        """0 (inactive) or 1 (active)."""
        return 1 if v in self._adj[u] else 0

    def set_edge(self, u: int, v: int, state: int) -> None:
        if u == v:
            raise SimulationError(f"self-loop requested at node {u}")
        adj = self._adj
        if state == 1:
            if v not in adj[u]:
                # An edgeless node holds an empty frozenset (_NO_EDGES,
                # or an equal one after unpickling): give it its own set.
                try:
                    adj[u].add(v)
                except AttributeError:
                    adj[u] = {v}
                try:
                    adj[v].add(u)
                except AttributeError:
                    adj[v] = {u}
                self._n_active += 1
        elif state == 0:
            if v in adj[u]:
                adj[u].discard(v)
                adj[v].discard(u)
                self._n_active -= 1
        else:
            raise SimulationError(f"edge state must be 0 or 1, got {state!r}")

    def degree(self, u: int) -> int:
        """Active degree of ``u``."""
        return len(self._adj[u])

    def neighbors(self, u: int) -> frozenset[int]:
        """Active neighbors of ``u``."""
        return frozenset(self._adj[u])

    def active_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over active edges as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    @property
    def n_active_edges(self) -> int:
        return self._n_active

    # ------------------------------------------------------------------
    # Output graph — Definition of G(C) in Section 3.1
    # ------------------------------------------------------------------
    def output_graph(self, output_states: frozenset | None = None) -> nx.Graph:
        """The output graph ``G(C)``: nodes whose state is in ``Qout`` and
        active edges between them.  ``output_states=None`` means all states
        are output states (the common case in the paper)."""
        graph = nx.Graph()
        if output_states is None:
            graph.add_nodes_from(range(self.n))
            graph.add_edges_from(self.active_edges())
            return graph
        members = {
            u for u, s in enumerate(self._states) if s in output_states
        }
        graph.add_nodes_from(members)
        graph.add_edges_from(
            (u, v)
            for u, v in self.active_edges()
            if u in members and v in members
        )
        return graph

    def active_subgraph(self, nodes: Iterable[int]) -> nx.Graph:
        """Active subgraph induced by an arbitrary node subset."""
        members = set(nodes)
        graph = nx.Graph()
        graph.add_nodes_from(members)
        graph.add_edges_from(
            (u, v)
            for u, v in self.active_edges()
            if u in members and v in members
        )
        return graph

    # ------------------------------------------------------------------
    # Equality / hashing-lite (used by tests)
    # ------------------------------------------------------------------
    def signature(self) -> tuple:
        """An immutable snapshot usable as a dict key: (states, edges)."""
        return (tuple(self._states), frozenset(map(frozenset, self.active_edges())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.signature() == other.signature()

    # Mutable by design: value-hashing a configuration that later mutates
    # would corrupt any hash container holding it.  Hash the immutable
    # signature() snapshot instead.
    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Configuration n={self.n} active_edges={self._n_active} "
            f"states={self.state_counts()!r}>"
        )
