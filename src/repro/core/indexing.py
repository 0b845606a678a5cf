"""Incremental indexes for event-driven simulation.

Two data structures back the :class:`~repro.core.simulator.IndexedSimulator`
and the incremental bookkeeping on :class:`~repro.core.configuration.Configuration`:

* :class:`IndexedSet` — a set with O(1) add / discard / membership *and*
  O(1) uniform random sampling (list + position dict with swap-remove).
* :class:`PairClassIndex` — a census of the candidate interaction pairs of
  a population, grouped into *state classes* ``(a, b, c)``: the unordered
  pair of node states plus the edge status between them.  Effectiveness of
  an interaction depends only on its class, so the set of effective pairs
  can be tracked as a handful of per-class counts instead of per-pair
  entries:

  - pairs over an **active** edge are indexed explicitly per class (there
    are at most ``n - 1`` active edges in the sparse constructions of the
    paper, and never more than the edges actually present);
  - pairs over a **non-edge** are counted *combinatorially* from the
    per-state node counts minus the active-edge count of the class —
    no per-pair storage at all.

  Sampling a uniformly random effective pair is then: draw a class with
  probability proportional to its pair count, then a uniform pair within
  the class (directly for edge classes, by rejection against the active
  adjacency for non-edge classes).

  Every present state has a node count in ``counts``, but only the
  states a non-edge draw can reach have a node bucket in ``nodes``.
  For a closed table (one that interns exactly its declared states),
  :attr:`~repro.core.protocol.CompiledProtocol.count_only` lists the
  declared states that form no effective non-edge class with any
  declared state — the line's ``q1``, ``q2`` and ``w``.  Both states of
  an effective non-edge class are outside that set by definition, so
  filing their nodes is all a draw needs, and moving a node between two
  count-only states (the walk of the line's leader) only changes
  counts.  A table that interns lazily, or has interned a state
  outside its declared set, has no count-only states.  A protocol that
  reaches an undeclared state forming an effective non-edge class with
  a count-only one gets that class counted exactly; drawing from it
  raises :class:`~repro.core.errors.SimulationError` naming the state.

  The index memoizes, per unordered state pair, which of its two classes
  are effective.  Maintenance after an interaction then costs the
  effective classes that touch the changed states (pairs with no
  effective class are skipped before any counting) plus the degree of
  the changed nodes, instead of an O(n) rescan of every partner of
  each changed node.  Active edges of a
  pair known to have no effective class (say the interior ``q2``–``q2``
  edges of a line) are not filed at all.

  The seeded law depends on four structures only: the item order of
  ``weights``, which ``sample_class`` walks; the swap-remove order of
  the node buckets and of the edge buckets, which ``sample_pair`` draws
  from; and each refresh's visit order, which the present states in
  ``counts`` order fix.  A refresh therefore pops and re-inserts every
  visited effective class, changed weight or not, in a fixed visit
  order.  Everything else (the order of ``nodes`` and ``edges``
  themselves, how a draw is coded) is free to change, as long as each
  draw takes the bits :func:`randbelow` takes.

  ``refresh_involving`` memoizes its *visit plan*: the effective
  classes its visit reaches, in visit order.  The key is the changed
  state ids in iteration order plus the present states in ``counts``
  order, which together fix the visit order (the target set is built
  from exactly those ids, in exactly that order).  The first refresh
  under a key runs the visit, asking the oracle about each new pair as
  always; every later one only recounts the plan's classes, popping and
  re-inserting them in the same order.  Replaying is exact because the
  per-pair memo only grows, never changing an entry, and weight updates
  never change what a visit sees: whether a visited pair is skipped
  depends on that memo alone.  By the same argument a plan is a pure
  function of its *visit order*, the changed ids and then the targets,
  each in iteration order: many keys differing only in present-state
  order give one visit order (a set of small ints iterates mostly in
  ascending order).  A key seen for the first time therefore looks its
  plan up in ``visits`` by visit order before visiting, and points at
  the plan it finds.

  The memos depend on the rule table only, so the index takes them
  from the :class:`~repro.core.protocol.CompiledProtocol` it is built
  over, and every run on that table shares them: for a protocol that
  declares its state set, every run on one instance (see
  :meth:`~repro.core.protocol.Protocol.compile`).  Sharing is exact by
  the replay argument above, across runs as within one: a plan is a
  pure function of its key, and the pair memo only grows.  The one
  difference is at set-up: an initial active edge whose pair an earlier
  run already found to have no effective class is not filed, and such
  an edge is never sampled or counted.  A table's visit orders and
  their plans stay within ``_PLAN_CAP`` cells, and its keys within as
  many again (~260 kB in all); past that, a new visit order is visited
  unmemoized, and a new key finds its plan by visit order.

  The index is built over the run's live configuration and runs the
  indexed engine's walk over it, fault upkeep included
  (:meth:`PairClassIndex.walk`), so this module alone knows the filing
  order the seeded law depends on and keeps the configuration in step
  with it.  What a change does is decided once per table: the walk
  reads it from the table's transition record of the drawn triple
  (:meth:`~repro.core.protocol.CompiledProtocol.transition`).  Only a
  rule that draws its outcome (several outcomes, or the coin of an
  ``(a, a, c)`` pair) is drawn per change, and what it drew is then
  looked up (:meth:`~repro.core.protocol.CompiledProtocol.change`).
  The walk moves nodes, a fault's too, through one mover,
  :meth:`~PairClassIndex.move_node`, except for a swap over an edge
  both nodes keep (the line leader's walk step), which it moves in one
  pass of its own that leaves every structure as the two moves would,
  with pair keys from the table's
  :attr:`~repro.core.protocol.CompiledProtocol.pair_keys`.
  ``sample_class`` and ``sample_pair`` draw exactly what the walk's
  inline draw draws, and are the tests' reference for it.

States here are the dense integer ids produced by
:meth:`repro.core.protocol.Protocol.compile`; the index reads raw state
values only to keep the configuration in step, publish events and name
states in errors.
"""

from __future__ import annotations

import math
import random
import threading
from collections import Counter
from functools import partial
from typing import (
    TYPE_CHECKING, AbstractSet, Callable, Hashable, Iterable, Iterator,
)

from repro.core.configuration import CensusView
from repro.core.errors import SimulationError
from repro.core.faults import DEAD, join_state
from repro.core.trace import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.configuration import Configuration
    from repro.core.protocol import CompiledProtocol


class IndexedSet:
    """A set with O(1) add/discard/contains and O(1) uniform sampling.

    :meth:`PairClassIndex.move_node` and the indexed walk inline
    ``add``/``discard``/``sample``, reading ``_items`` and ``_index``
    directly; the inlined copies must keep exactly this swap-remove
    order, which seeded draws depend on."""

    __slots__ = ("_items", "_index")

    def __init__(self) -> None:
        self._items: list[Hashable] = []
        self._index: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def add(self, item: Hashable) -> None:
        if item not in self._index:
            self._index[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: Hashable) -> None:
        idx = self._index.pop(item, None)
        if idx is None:
            return
        last = self._items.pop()
        if idx < len(self._items):
            self._items[idx] = last
            self._index[last] = idx

    def sample(self, rng: random.Random):
        """A uniformly random element (the set must be non-empty)."""
        return self._items[rng.randrange(len(self._items))]

    def copy(self) -> "IndexedSet":
        clone = IndexedSet.__new__(IndexedSet)
        clone._items = list(self._items)
        clone._index = dict(self._index)
        return clone


#: Effectiveness oracle over interned state-id triples ``(a, b, c)``.
EffectivenessOracle = Callable[[int, int, int], bool]


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random.randrange(n)`` for ``n >= 1``, drawing exactly the bits
    it draws: ``n.bit_length()`` bits, drawn again while the value is
    ``>= n``.  The indexed walk inlines this loop for its class and pair
    draws, so a change here changes the seeded law."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


#: How many rejection attempts to make when sampling a non-edge pair
#: before falling back to explicit enumeration.  Per-attempt success
#: probability is (non-edge pairs)/(all pairs) of the class; whenever it
#: is >= 1/2 the fallback's probability is 2^-64.  A class that is
#: mostly active edges (a near-complete same-state cluster) can push the
#: success probability low and make the O(class size^2) enumeration the
#: common path for that class — correct but slow; the paper's sparse
#: constructions (<= n-1 active edges) never approach that regime.
_REJECTION_CAP = 64

#: Cells of memoized visit plans one compiled table may hold, and again
#: of keys pointing at them (see the module docstring): a visit order
#: costs one cell per item of the order and one per entry of its plan,
#: an 8-byte reference to an entry shared with the pair memo; a key
#: costs one cell per item, its plan being the shared one of its visit
#: order.  With each tuple's header and dict slot, that measured 14-16
#: bytes a cell, so ~260 kB per full table.  The memo lives as long as
#: its table (for a shared table, as long as the protocol instance),
#: which is why the cap is small.  Keys get their own budget because
#: they outnumber visit orders several times over and would otherwise
#: crowd them out.  A visit order that no longer fits is visited
#: unmemoized; a key that no longer fits finds its plan by visit order.
_PLAN_CAP = 1 << 13

#: Guards filing a new plan or key and counting its cells against
#: ``_PLAN_CAP``.
_PLAN_LOCK = threading.Lock()

#: One visited state pair with an effective class: ``(lo, hi, pair,
#: k0, k1)``, ``pair`` being ``(lo, hi)`` and ``k0``/``k1`` the key
#: ``(lo, hi, c)`` of its class at ``c = 0``/``1``, or ``None`` where
#: that class is not effective.
_Entry = tuple[
    int, int, tuple[int, int],
    tuple[int, int, int] | None, tuple[int, int, int] | None,
]

# Where a walk's ``advance`` stopped the clock: at an applied change
# that may have changed the output graph, or one that cannot have; after
# a census leap whose firings were all identities (the clock moved,
# nothing changed); at the next fault step; at the budget; or with no
# alive pair able to change anything.
_APPLIED, _APPLIED_OUTPUT, _MOVED, _AT_FAULT, _AT_BUDGET, _IDLE = range(6)


class PairClassIndex:
    """Candidate-pair census grouped by state class ``(a, b, c)``.

    Parameters
    ----------
    table:
        The :class:`~repro.core.protocol.CompiledProtocol` the states
        are interned by.  Its memoized oracle ``is_effective(a_id, b_id,
        c)`` decides which classes contribute weight (their pair count)
        to :attr:`total`.  It is asked about a state pair once, ``c = 0``
        before ``c = 1``, the first time a ``refresh_*`` call visits the
        pair, and never from edge upkeep: a lazily interning oracle
        assigns state ids as it resolves rules, so asking earlier would
        renumber states.  The index keeps its pair-class memo, plan
        memos and their budgets on the table (``pair_classes``,
        ``plans``, ``visits``, ``plan_cells``, ``key_cells``), shared
        with every other index over it, and takes its
        :attr:`count_only` states from it.
    config:
        The live configuration, every node alive.  The index interns its
        states into :attr:`sid`, files its nodes and active edges and
        weighs every present pair; from then on :meth:`move_node`, the
        walk's swap step and its fault methods keep the configuration
        in step with the index.

    Every present state has a node count in :attr:`counts`; only the
    states outside :attr:`count_only` have a node bucket in
    :attr:`nodes`, the only buckets a non-edge pair draw reads.  The
    seeded law depends on four structures only: the item order of
    :attr:`weights`, the item order of the node buckets and of the
    edge buckets, and each refresh's visit order, which the present
    states in :attr:`counts` order fix.
    """

    __slots__ = (
        "table", "config", "sid", "_raw", "_eff", "_classes", "_plans",
        "_visits", "count_only", "counts", "nodes", "edges", "weights",
        "total",
    )

    def __init__(self, table: CompiledProtocol, config: Configuration) -> None:
        self.table = table
        self.config = config
        #: node id -> state id (a crashed node keeps its last one)
        sid = self.sid = table.intern_all(config._states)
        #: state id -> raw state (the table's own list; it only grows)
        self._raw = table._states
        self._eff: EffectivenessOracle = table.is_effective
        #: (lo, hi) -> its plan entry, or () if it has no effective
        #: class; memoized by the first refresh that visits the pair
        self._classes: dict[tuple[int, int], _Entry | tuple[()]] = (
            table.pair_classes
        )
        #: refresh_involving's key -> its visit plan (a tuple of entries)
        self._plans: dict[tuple[int, ...], tuple[_Entry, ...]] = table.plans
        #: a visit order -> its plan, which every key of the order shares
        self._visits: dict[tuple[int, ...], tuple[_Entry, ...]] = table.visits
        #: state ids no non-edge pair draw can reach: counted, never
        #: filed in a node bucket (see CompiledProtocol.count_only)
        self.count_only: frozenset[int] = table.count_only
        #: state id -> node count, every present state.  A state enters
        #: with its first node and leaves with its last, so the key
        #: order is the present-state order refresh plans are keyed on.
        self.counts: dict[int, int] = dict(Counter(sid))
        #: state id -> IndexedSet of node ids (present states outside
        #: count_only only)
        self.nodes: dict[int, IndexedSet] = {}
        #: (lo, hi) state-id pair -> IndexedSet of active edges (u, v),
        #: u < v.  Edges of a pair known to have no effective class are
        #: not filed: nothing samples them or subtracts their count.
        self.edges: dict[tuple[int, int], IndexedSet] = {}
        #: (lo, hi, c) -> number of candidate pairs, effective classes
        #: only.  ``sample_class`` walks it in insertion order, so that
        #: order is part of the seeded law.
        self.weights: dict[tuple[int, int, int], int] = {}
        #: total number of effective pairs
        self.total = 0

        # File the nodes: what add_node on each in ascending id files,
        # with the same counts order and bucket item order, in one pass
        # over sid after a C-level count.
        filed: dict[int, list[int]] = {
            s: [] for s in self.counts if s not in self.count_only
        }
        if filed:
            for u, s in enumerate(sid):
                items = filed.get(s)
                if items is not None:
                    items.append(u)
        for s, items in filed.items():
            bucket = self.nodes[s] = IndexedSet()
            bucket._items = items
            bucket._index = dict(zip(items, range(len(items))))
        for u, v in config.active_edges():
            self.add_edge(u, v, sid[u], sid[v])
        self.rebuild()

    # ------------------------------------------------------------------
    # Structural updates (no weight maintenance; call refresh_* after)
    # ------------------------------------------------------------------
    def add_node(self, u: int, state: int) -> None:
        counts = self.counts
        counts[state] = counts.get(state, 0) + 1
        if state not in self.count_only:
            bucket = self.nodes.get(state)
            if bucket is None:
                bucket = self.nodes[state] = IndexedSet()
            bucket.add(u)

    def move_node(self, u: int, old: int, new: int) -> None:
        """Move the alive node ``u`` from state id ``old`` to ``new`` in
        one pass: the configuration's state and state count, the index's
        count, the bucket of every incident active edge, ``u``'s node
        bucket (drawable states only) and :attr:`sid`, with the buckets'
        swap-remove and append order inlined.  The walk's swap step does
        what two calls do in one pass of its own (see :meth:`walk`)."""
        cfg = self.config
        states = cfg._states
        hist = cfg._counts
        raw = states[u]
        left = hist[raw] - 1
        if left:
            hist[raw] = left
        else:
            del hist[raw]
        raw = states[u] = self._raw[new]
        hist[raw] = hist.get(raw, 0) + 1
        counts = self.counts
        left = counts[old] - 1
        if left:
            counts[old] = left
        else:
            del counts[old]
        counts[new] = counts.get(new, 0) + 1
        sid = self.sid
        edges = self.edges
        # Re-file each incident edge as remove_edge, then add_edge, would.
        for x in cfg._adj[u]:
            sx = sid[x]
            edge = (u, x) if u < x else (x, u)
            key = (old, sx) if old <= sx else (sx, old)
            bucket = edges.get(key)
            if bucket is not None:
                where = bucket._index
                idx = where.pop(edge, None)
                if idx is not None:
                    items = bucket._items
                    last = items.pop()
                    if idx < len(items):
                        items[idx] = last
                        where[last] = idx
                    elif not items:
                        del edges[key]
            key = (new, sx) if new <= sx else (sx, new)
            if self._classes.get(key, True):
                bucket = edges.get(key)
                if bucket is None:
                    bucket = edges[key] = IndexedSet()
                where = bucket._index
                if edge not in where:
                    items = bucket._items
                    where[edge] = len(items)
                    items.append(edge)
        count_only = self.count_only
        nodes = self.nodes
        if old not in count_only:
            bucket = nodes[old]
            where = bucket._index
            idx = where.pop(u, None)
            if idx is not None:
                items = bucket._items
                last = items.pop()
                if idx < len(items):
                    items[idx] = last
                    where[last] = idx
                elif not items:
                    del nodes[old]
        if new not in count_only:
            bucket = nodes.get(new)
            if bucket is None:
                bucket = nodes[new] = IndexedSet()
            where = bucket._index
            if u not in where:
                items = bucket._items
                where[u] = len(items)
                items.append(u)
        sid[u] = new

    def remove_node(self, u: int, state: int) -> None:
        """Drop ``u`` from the census entirely (crash-stop faults): the
        node stops contributing candidate pairs of any class."""
        counts = self.counts
        left = counts.get(state, 0) - 1
        if left < 0:
            return
        if left:
            counts[state] = left
        else:
            del counts[state]
        bucket = self.nodes.get(state)
        if bucket is not None:
            bucket.discard(u)
            if not bucket:
                del self.nodes[state]

    def add_edge(self, u: int, v: int, su: int, sv: int) -> None:
        key = (su, sv) if su <= sv else (sv, su)
        # File unless the pair is known to have no effective class (an
        # empty tuple); a pair no refresh has visited yet is filed.
        if not self._classes.get(key, True):
            return
        bucket = self.edges.get(key)
        if bucket is None:
            bucket = self.edges[key] = IndexedSet()
        bucket.add((u, v) if u < v else (v, u))

    def remove_edge(self, u: int, v: int, su: int, sv: int) -> None:
        key = (su, sv) if su <= sv else (sv, su)
        bucket = self.edges.get(key)
        if bucket is None:
            return
        bucket.discard((u, v) if u < v else (v, u))
        if not bucket:
            del self.edges[key]

    def move_edge(self, u: int, v: int, old_su: int, sv: int, new_su: int) -> None:
        """Re-file the active edge ``(u, v)`` after ``u`` moved state, as
        :meth:`move_node` re-files each edge of the node it moves."""
        self.remove_edge(u, v, old_su, sv)
        self.add_edge(u, v, new_su, sv)

    # ------------------------------------------------------------------
    # Weight maintenance
    # ------------------------------------------------------------------
    def refresh_pair(self, a: int, b: int) -> None:
        """Recompute the weights of the effective classes over the state
        pair."""
        pair = (a, b) if a <= b else (b, a)
        entry = self._classes.get(pair)
        if entry is None:
            self._recount(self._plan((a,), (b,)))
        elif entry:
            self._recount((entry,))

    def refresh_involving(self, states: AbstractSet[int]) -> None:
        """Recompute every effective class that involves one of ``states``.

        Called after node state changes: only classes touching an old or
        new state of a changed node can have gained or lost pairs.  The
        visit order (each of ``states`` against every present state and
        every one of ``states``, in set iteration order) is part of the
        seeded law.  A transition record's ``dirty`` frozenset iterates,
        and merges into the targets, as the set it copies would.  The
        visit plan is memoized under ``states`` in iteration order plus
        the present states in ``counts`` order (see the module
        docstring)."""
        key = (*states, -1, *self.counts)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._memo_plan(key, states)
        self._recount(plan)

    def _memo_plan(
        self, key: tuple[int, ...], states: AbstractSet[int]
    ) -> tuple[_Entry, ...]:
        """The plan of ``refresh_involving``'s ``key``, on a miss: taken
        from ``visits`` under its visit order (``states``, then the
        targets, each in iteration order) or visited afresh, then filed
        under the order and under ``key``, as far as ``_PLAN_CAP``
        allows.  Keys that differ only in present-state order often give
        one visit order, and then share its plan."""
        targets = set(self.counts)
        targets.update(states)
        order = (*states, -1, *targets)
        visits = self._visits
        plan = visits.get(order)
        if plan is None:
            plan = self._plan(states, targets)
        table = self.table
        # Runs in other threads may share the table, and may have filed
        # the order or the key since the miss.
        with _PLAN_LOCK:
            if order not in visits:
                cost = len(order) + len(plan)
                if table.plan_cells + cost > _PLAN_CAP:
                    return plan
                visits[order] = plan
                table.plan_cells += cost
            plan = visits[order]
            if key not in self._plans and table.key_cells + len(key) <= _PLAN_CAP:
                self._plans[key] = plan
                table.key_cells += len(key)
        return plan

    def _plan(
        self, states: Iterable[int], targets: Iterable[int]
    ) -> tuple[_Entry, ...]:
        """The visit plan pairing each of ``states`` with each of
        ``targets``, each unordered pair once, in visit order: the entry
        of every visited pair with an effective class.  The oracle is
        asked about a pair the first time any visit reaches it."""
        known = self._classes
        plan = []
        done: set[int] = set()
        for x in states:
            for t in targets:
                if t in done:
                    continue
                pair = (x, t) if x <= t else (t, x)
                entry = known.get(pair)
                if entry is None:
                    lo, hi = pair
                    k0 = (lo, hi, 0) if self._eff(lo, hi, 0) else None
                    k1 = (lo, hi, 1) if self._eff(lo, hi, 1) else None
                    entry = known[pair] = (
                        (lo, hi, pair, k0, k1) if k0 or k1 else ()
                    )
                if entry:
                    plan.append(entry)
            done.add(x)
        return tuple(plan)

    def _recount(self, plan: tuple[_Entry, ...]) -> None:
        """Recount every class of ``plan`` in order, ``c = 0`` before
        ``c = 1``: pop it from ``weights`` and re-insert it, changed
        weight or not."""
        counts = self.counts
        edges = self.edges
        weights = self.weights
        total = self.total
        for lo, hi, pair, k0, k1 in plan:
            na = counts.get(lo, 0)
            bucket = edges.get(pair)
            n_edges = len(bucket._items) if bucket is not None else 0
            if k0 is not None:
                if lo == hi:
                    weight = na * (na - 1) // 2 - n_edges
                else:
                    weight = na * counts.get(hi, 0) - n_edges
                old = weights.pop(k0, 0)
                if weight:
                    weights[k0] = weight
                total += weight - old
            if k1 is not None:
                old = weights.pop(k1, 0)
                if n_edges:
                    weights[k1] = n_edges
                total += n_edges - old
        self.total = total

    def rebuild(self) -> None:
        """Recompute all weights from scratch (initialization)."""
        self.weights.clear()
        self.total = 0
        present = list(self.counts)
        for i, a in enumerate(present):
            for b in present[i:]:
                self.refresh_pair(a, b)

    # ------------------------------------------------------------------
    # Sampling (the walk inlines both draws; these methods draw exactly
    # what it draws)
    # ------------------------------------------------------------------
    def sample_class(self, rng: random.Random) -> tuple[int, int, int]:
        """Draw a class with probability proportional to its pair count."""
        r = randbelow(rng.getrandbits, self.total)
        for key, weight in self.weights.items():
            r -= weight
            if r < 0:
                return key
        raise AssertionError("PairClassIndex weights out of sync with total")

    def sample_pair(
        self,
        key: tuple[int, int, int],
        rng: random.Random,
        edge_state: Callable[[int, int], int],
    ) -> tuple[int, int]:
        """A uniform pair within class ``key``; the first node returned is
        in state ``key[0]``, the second in ``key[1]`` (for edge classes the
        orientation is by node id — callers resolve rules by state)."""
        lo, hi, c = key
        getrandbits = rng.getrandbits
        if c == 1:
            items = self.edges[(lo, hi)]._items
            return items[randbelow(getrandbits, len(items))]
        try:
            a_items = self.nodes[lo]._items
            b_items = self.nodes[hi]._items
        except KeyError:
            raise self.unfiled(key) from None
        for _ in range(_REJECTION_CAP):
            u = a_items[randbelow(getrandbits, len(a_items))]
            v = b_items[randbelow(getrandbits, len(b_items))]
            if u == v:
                continue
            if not edge_state(u, v):
                return (u, v)
        return self.sample_dense(lo, hi, rng, edge_state)

    def sample_dense(
        self,
        lo: int,
        hi: int,
        rng: random.Random,
        edge_state: Callable[[int, int], int],
    ) -> tuple[int, int]:
        """A uniform non-edge pair of class ``(lo, hi, 0)`` by explicit
        enumeration: the fallback once ``_REJECTION_CAP`` rejection
        draws all hit an active edge (a dense class: most candidate pairs
        are active edges).  Cold by construction."""
        a = self.nodes[lo]
        if lo == hi:
            members = list(a)
            candidates = [
                (u, v)
                for i, u in enumerate(members)
                for v in members[i + 1 :]
                if not edge_state(u, v)
            ]
        else:
            b = self.nodes[hi]
            candidates = [
                (u, v) for u in a for v in b if not edge_state(u, v)
            ]
        return candidates[rng.randrange(len(candidates))]

    def unfiled(self, key: tuple[int, int, int]) -> SimulationError:
        """The error for a draw from the non-edge class ``key`` that
        reaches a count-only state.  Only a protocol whose declared
        ``states`` miss a state it reaches can get there: the count-only
        set is exact over the declared states."""
        lo, hi, _ = key
        state, other = (hi, lo) if lo in self.nodes else (lo, hi)
        table = self.table
        return SimulationError(
            f"{table.protocol.name}: state {table.state_of(state)!r} forms "
            f"no effective non-edge class with a declared state, so its "
            f"nodes are counted, not filed, but it forms one with "
            f"{table.state_of(other)!r}; declare every state the protocol "
            f"reaches in its `states`"
        )

    # ------------------------------------------------------------------
    # The indexed engine's walk
    # ------------------------------------------------------------------
    def walk(self, rng: random.Random, publish, stabilized):
        """The indexed engine's walk over this index and its configuration:
        ``(advance, certificate, crash, cut, corrupt, arrive, revive)``,
        the pieces :func:`~repro.core.simulator._exact_walk` takes after
        its dead set.

        ``advance`` runs each effective interaction in one Python frame:
        it draws the class and the pair itself, with the ``getrandbits``
        loop of ``Random.randrange`` (:func:`randbelow`), reads the drawn
        triple's transition record
        (:meth:`~repro.core.protocol.CompiledProtocol.transition`: the
        new states and edge, what changed, whether it is a swap, whether
        the output graph may have changed, the dirty states), moves each
        changed node with :meth:`move_node` and recounts a memoized plan
        inline.  A rule without a record draws its outcome as it always
        has, and reads the memoized
        :meth:`~repro.core.protocol.CompiledProtocol.change` of what it
        drew.  An edge flip, a plan-key miss and a
        dense class's fallback enumeration call the index's methods.
        With no trace or bus attached (``publish`` is ``None``), it
        builds no ``Event``.

        A swap over an edge both nodes keep does not call the mover:
        one pass does what ``move_node(u, su, sv)`` then ``move_node(v,
        sv, su)`` do.  Both histograms stay as they were, bar the
        end-of-dict move of a state whose count passes through zero;
        the incident edges of ``u``, then of ``v``, are re-filed in the
        two moves' order, with keys from the table's
        :attr:`~repro.core.protocol.CompiledProtocol.pair_keys` (a lazily
        interning table has none, and moves through the mover); and the
        drawable node buckets end in the two moves' item order.

        On a table that may swap two states
        (:attr:`~repro.core.protocol.CompiledProtocol.swaps`),
        ``certificate()`` asks ``stabilized`` through a
        :class:`~repro.core.configuration.CensusView` of the
        configuration's histogram.  While that answer is False,
        ``advance`` does not return after a swap of two nodes' states
        over an edge left as it was (the line leader's walk step),
        unless it changed the output graph or came at a fault's step:
        the census, and so the answer, stands.  It keeps
        ``log(1 - k/m)`` for as long as ``k`` is unchanged.

        ``crash``, ``cut``, ``corrupt``, ``arrive`` and ``revive`` keep
        the index and the configuration in step with a fault: they
        re-file the nodes and edges it touches, move each node a
        notification hook (``on_neighbor_crash``, ``on_edge_loss``, of
        ``table.protocol``) changes through the mover, reweigh the
        classes of the changed states, follow a change of the alive
        population that ``advance`` counts its pairs over, and end a
        standing certificate answer.  Their call order is part of the
        seeded law.
        """
        cfg = self.config
        table = self.table
        raw_of = self._raw
        adj = cfg._adj
        raw_states = cfg._states
        raw_counts = cfg._counts
        sid = self.sid
        alive = cfg.n
        m = alive * (alive - 1) // 2
        log = math.log
        getrandbits = rng.getrandbits
        move_node = self.move_node

        counts = self.counts
        nodes = self.nodes
        edges = self.edges
        weights = self.weights
        classes = self._classes
        count_only = self.count_only
        plans = table.plans
        transitions = table._transitions
        resolved = table._resolved
        changes = table._changes
        keys = table.pair_keys
        # While the certificate answers through ``view`` (reading the
        # census alone), ``quiet`` says its last answer, False, stands:
        # nothing has changed the census since.
        view = (
            CensusView(raw_counts, lambda: cfg.n_active_edges)
            if table.swaps else None
        )
        quiet = False

        def advance(steps, fault_next, max_steps):
            nonlocal quiet
            passed = passed_at = 0
            logged = 0  # the k that log_miss is log(1 - k/m) of
            while True:
                k = self.total
                if k == 0:
                    return steps, _IDLE, 0, passed, passed_at
                if k == m:
                    skip = 0
                else:
                    # Number of failed (ineffective) picks before a success.
                    if k != logged:
                        logged = k
                        log_miss = log(1.0 - k / m)
                    skip = int(log(1.0 - rng.random()) / log_miss)
                if fault_next is not None and steps + skip + 1 > fault_next:
                    # A fault fires before the next effective pick; the
                    # skip is memoryless, so jump to the fault and redraw.
                    if max_steps is not None and fault_next > max_steps:
                        return max_steps, _AT_BUDGET, 0, passed, passed_at
                    return fault_next, _AT_FAULT, 0, passed, passed_at
                if max_steps is not None and steps + skip + 1 > max_steps:
                    return max_steps, _AT_BUDGET, 0, passed, passed_at
                steps += skip + 1

                # sample_class, then sample_pair, inlined with their
                # draws (randbelow).
                bits = k.bit_length()
                r = getrandbits(bits)
                while r >= k:
                    r = getrandbits(bits)
                for key, weight in weights.items():
                    r -= weight
                    if r < 0:
                        break
                else:
                    raise AssertionError(
                        "PairClassIndex weights out of sync with total"
                    )
                lo, hi, c = key
                if c:
                    items = edges[(lo, hi)]._items
                    size = len(items)
                    bits = size.bit_length()
                    r = getrandbits(bits)
                    while r >= size:
                        r = getrandbits(bits)
                    u, v = items[r]
                else:
                    try:
                        a_items = nodes[lo]._items
                        b_items = nodes[hi]._items
                    except KeyError:
                        raise self.unfiled(key) from None
                    size_a = len(a_items)
                    bits_a = size_a.bit_length()
                    size_b = len(b_items)
                    bits_b = size_b.bit_length()
                    for _ in range(_REJECTION_CAP):
                        r = getrandbits(bits_a)
                        while r >= size_a:
                            r = getrandbits(bits_a)
                        u = a_items[r]
                        r = getrandbits(bits_b)
                        while r >= size_b:
                            r = getrandbits(bits_b)
                        v = b_items[r]
                        if u != v and v not in adj[u]:
                            break
                    else:
                        u, v = self.sample_dense(lo, hi, rng, cfg.edge_state)
                su = sid[u]
                sv = sid[v]
                record = transitions.get((su, sv, c))
                if record is None:
                    record = table.transition(su, sv, c)
                if not record:
                    # The rule draws its outcome: several outcomes, or a
                    # coin for which node of an (a, a, c) pair takes
                    # which new state.
                    dist, swapped = resolved[(su, sv, c)]
                    if len(dist) == 1:
                        outcome = dist[0][1]
                    else:
                        roll = rng.random()
                        acc = 0.0
                        outcome = dist[-1][1]
                        for prob, candidate in dist:
                            acc += prob
                            if roll < acc:
                                outcome = candidate
                                break
                    if swapped:
                        new_u, new_v = outcome[1], outcome[0]
                    else:
                        new_u, new_v = outcome[0], outcome[1]
                    if su == sv and new_u != new_v and rng.random() < 0.5:
                        new_u, new_v = new_v, new_u
                    new_edge = outcome[2]
                    if new_u == su and new_v == sv and new_edge == c:
                        # An effective class may sample an identity
                        # outcome in a probabilistic rule; the step still
                        # elapsed.
                        if fault_next is not None and fault_next <= steps:
                            return steps, _AT_FAULT, 0, passed, passed_at
                        continue
                    record = changes.get((su, sv, c, new_u, new_v, new_edge))
                    if record is None:
                        record = table.change(su, sv, c, new_u, new_v, new_edge)
                (new_u, new_v, new_edge, u_changed, v_changed, edge_changed,
                 swap, output, dirty) = record

                if swap and keys is not None:
                    # What move_node(u, su, sv), then move_node(v, sv,
                    # su) do, in one pass.  Both histograms end as they
                    # began, except that a state whose count passes
                    # through zero (u's, when u is its only node) moves
                    # to the end, as the two moves leave it.
                    if counts[su] == 1:
                        del counts[su]
                        counts[su] = 1
                    raw = raw_of[su]
                    if raw_counts[raw] == 1:
                        del raw_counts[raw]
                        raw_counts[raw] = 1
                    raw_states[u] = raw_of[sv]
                    raw_states[v] = raw
                    # Each node's incident edges, u's first, re-filed as
                    # its move re-files them: v's see u in its new state.
                    for w, old, new in ((u, su, sv), (v, sv, su)):
                        old_keys = keys[old]
                        new_keys = keys[new]
                        for x in adj[w]:
                            sx = sid[x]
                            edge = (w, x) if w < x else (x, w)
                            key = old_keys[sx]
                            bucket = edges.get(key)
                            if bucket is not None:
                                where = bucket._index
                                idx = where.pop(edge, None)
                                if idx is not None:
                                    items = bucket._items
                                    last = items.pop()
                                    if idx < len(items):
                                        items[idx] = last
                                        where[last] = idx
                                    elif not items:
                                        del edges[key]
                            key = new_keys[sx]
                            if classes.get(key, True):
                                bucket = edges.get(key)
                                if bucket is None:
                                    bucket = edges[key] = IndexedSet()
                                where = bucket._index
                                if edge not in where:
                                    items = bucket._items
                                    where[edge] = len(items)
                                    items.append(edge)
                        sid[w] = new
                    # The node buckets the two moves leave: u leaves
                    # su's and v joins its end; in sv's, u takes the
                    # place v held.
                    if su not in count_only:
                        bucket = nodes[su]
                        where = bucket._index
                        items = bucket._items
                        idx = where.pop(u)
                        last = items.pop()
                        if idx < len(items):
                            items[idx] = last
                            where[last] = idx
                        where[v] = len(items)
                        items.append(v)
                    if sv not in count_only:
                        bucket = nodes[sv]
                        where = bucket._index
                        idx = where.pop(v)
                        bucket._items[idx] = u
                        where[u] = idx
                else:
                    if u_changed:
                        move_node(u, su, new_u)
                    if v_changed:
                        move_node(v, sv, new_v)
                if edge_changed:
                    cfg.set_edge(u, v, new_edge)
                    if new_edge:
                        self.add_edge(u, v, sid[u], sid[v])
                    else:
                        self.remove_edge(u, v, sid[u], sid[v])
                if dirty:
                    # refresh_involving, replaying a memoized plan inline
                    # (_recount).
                    plan = plans.get((*dirty, -1, *counts))
                    if plan is None:
                        self.refresh_involving(dirty)
                    else:
                        total = self.total
                        for x, y, pair, k0, k1 in plan:
                            na = counts.get(x, 0)
                            bucket = edges.get(pair)
                            n_edges = (
                                len(bucket._items) if bucket is not None else 0
                            )
                            if k0 is not None:
                                if x == y:
                                    weight = na * (na - 1) // 2 - n_edges
                                else:
                                    weight = na * counts.get(y, 0) - n_edges
                                was = weights.pop(k0, 0)
                                if weight:
                                    weights[k0] = weight
                                total += weight - was
                            if k1 is not None:
                                was = weights.pop(k1, 0)
                                if n_edges:
                                    weights[k1] = n_edges
                                total += n_edges - was
                        self.total = total
                else:
                    self.refresh_pair(su, sv)

                if publish is not None:
                    publish.interaction(Event(
                        steps, u, v,
                        raw_of[su], raw_of[new_u],
                        raw_of[sv], raw_of[new_v],
                        c, new_edge,
                    ), cfg)
                if output:
                    quiet = False
                    return steps, _APPLIED_OUTPUT, 1, passed, passed_at
                if quiet:
                    if swap and (fault_next is None or fault_next > steps):
                        # The census, and so the certificate's False,
                        # stands.  A change at a fault's step is
                        # returned, so the loop drains the fault before
                        # the next draw.
                        passed += 1
                        passed_at = steps
                        continue
                    quiet = False
                return steps, _APPLIED, 1, passed, passed_at

        protocol = table.protocol
        intern = table.intern

        def renotify(x: int, new_state, dirty: set) -> None:
            if new_state is None:
                return
            new_id = intern(new_state)
            if new_id != sid[x]:
                dirty.add(sid[x])
                dirty.add(new_id)
                move_node(x, sid[x], new_id)

        def settle(dirty: set, joined: int = 0) -> None:
            """Reweigh the classes of ``dirty`` after a fault, follow a
            change of the alive population, and end a standing
            certificate answer: a fault may change the census."""
            nonlocal alive, m, quiet
            self.refresh_involving(dirty)
            alive += joined
            m = alive * (alive - 1) // 2
            quiet = False

        def crash(w: int) -> None:
            sw = sid[w]
            nbrs = list(adj[w])  # the set's order, which the law follows
            for x in nbrs:
                self.remove_edge(w, x, sw, sid[x])
                cfg.set_edge(w, x, 0)
            self.remove_node(w, sw)
            cfg.set_state(w, DEAD)
            dirty = {sw}
            for x in nbrs:
                renotify(x, protocol.on_neighbor_crash(raw_of[sid[x]]), dirty)
            settle(dirty, -1)

        def cut(a: int, b: int, silent: bool) -> None:
            self.remove_edge(a, b, sid[a], sid[b])
            cfg.set_edge(a, b, 0)
            dirty = {sid[a], sid[b]}
            if not silent:
                for x in (a, b):
                    renotify(x, protocol.on_edge_loss(raw_of[sid[x]]), dirty)
            settle(dirty)

        def corrupt(w: int, claim) -> None:
            new_id = intern(claim)
            dirty = {sid[w], new_id}
            move_node(w, sid[w], new_id)
            settle(dirty)

        def arrive(count: int) -> None:
            state = join_state(protocol)
            s_join = intern(state)
            for _ in range(count):
                sid.append(s_join)
                self.add_node(cfg.add_node(state), s_join)
            settle({s_join}, count)

        def revive(nodes: list) -> None:
            state = join_state(protocol)
            s_join = intern(state)
            for w in nodes:
                cfg.set_state(w, state)
                sid[w] = s_join
                self.add_node(w, s_join)
            settle({s_join}, len(nodes))

        if view is None:
            certificate = partial(stabilized, cfg)
        else:
            def certificate():
                nonlocal view, quiet
                if view is not None:
                    try:
                        held = stabilized(view)
                    except AttributeError:
                        view = None  # it reads more than the census
                    else:
                        quiet = not held
                        return held
                return stabilized(cfg)

        return advance, certificate, crash, cut, corrupt, arrive, revive
