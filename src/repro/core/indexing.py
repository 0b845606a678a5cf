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

  The indexed walk inlines the draws, the recount of a memoized plan
  and the node upkeep on its hot path; the methods here do the same
  work for every other caller, and draw exactly what the walk draws.

States here are the dense integer ids produced by
:meth:`repro.core.protocol.Protocol.compile`; the index never looks at raw
state values.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

from repro.core.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import CompiledProtocol


class IndexedSet:
    """A set with O(1) add/discard/contains and O(1) uniform sampling.

    :class:`PairClassIndex` and the indexed engine's walk inline
    ``add``/``discard``/``sample`` on their hot paths, reading ``_items``
    and ``_index`` directly; the inlined copies must keep exactly this
    swap-remove order, which seeded draws depend on."""

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

#: One visited state pair with an effective class: ``((lo, hi), keys)``,
#: ``keys`` being the ``(lo, hi, c)`` of its effective classes.
_Entry = tuple[tuple[int, int], tuple[tuple[int, int, int], ...]]


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

    Every present state has a node count in :attr:`counts`; only the
    states outside :attr:`count_only` have a node bucket in
    :attr:`nodes`, the only buckets a non-edge pair draw reads.  The
    seeded law depends on four structures only: the item order of
    :attr:`weights`, the item order of the node buckets and of the
    edge buckets, and each refresh's visit order, which the present
    states in :attr:`counts` order fix.
    """

    __slots__ = (
        "table", "_eff", "_classes", "_plans", "_visits", "count_only",
        "counts", "nodes", "edges", "weights", "total",
    )

    def __init__(self, table: CompiledProtocol) -> None:
        self.table = table
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
        self.counts: dict[int, int] = {}
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

    def add_nodes(self, sid: list[int]) -> None:
        """File nodes ``0 .. len(sid) - 1`` in states ``sid`` into an empty
        index: what ``add_node`` on each in ascending id files, with the
        same ``counts`` order and bucket item order, in one pass over
        ``sid`` after a C-level count."""
        counts = self.counts
        counts.update(Counter(sid))
        count_only = self.count_only
        filed: dict[int, list[int]] = {
            s: [] for s in counts if s not in count_only
        }
        if filed:
            for u, s in enumerate(sid):
                items = filed.get(s)
                if items is not None:
                    items.append(u)
        nodes = self.nodes
        for s, items in filed.items():
            bucket = nodes[s] = IndexedSet()
            bucket._items = items
            bucket._index = dict(zip(items, range(len(items))))

    def move_node(self, u: int, old: int, new: int) -> None:
        counts = self.counts
        left = counts[old] - 1
        if left:
            counts[old] = left
        else:
            del counts[old]
        counts[new] = counts.get(new, 0) + 1
        nodes = self.nodes
        count_only = self.count_only
        if old not in count_only:
            bucket = nodes[old]
            index = bucket._index
            idx = index.pop(u, None)
            if idx is not None:
                items = bucket._items
                last = items.pop()
                if idx < len(items):
                    items[idx] = last
                    index[last] = idx
                elif not items:
                    del nodes[old]
        if new not in count_only:
            bucket = nodes.get(new)
            if bucket is None:
                bucket = nodes[new] = IndexedSet()
            index = bucket._index
            if u not in index:
                index[u] = len(bucket._items)
                bucket._items.append(u)

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
        """Re-file the active edge ``(u, v)`` after ``u`` moved state:
        ``remove_edge`` then ``add_edge``, in one pass."""
        edge = (u, v) if u < v else (v, u)
        edges = self.edges
        key = (old_su, sv) if old_su <= sv else (sv, old_su)
        bucket = edges.get(key)
        if bucket is not None:
            index = bucket._index
            idx = index.pop(edge, None)
            if idx is not None:
                items = bucket._items
                last = items.pop()
                if idx < len(items):
                    items[idx] = last
                    index[last] = idx
                elif not items:
                    del edges[key]
        key = (new_su, sv) if new_su <= sv else (sv, new_su)
        if not self._classes.get(key, True):  # as in add_edge
            return
        bucket = edges.get(key)
        if bucket is None:
            bucket = edges[key] = IndexedSet()
        index = bucket._index
        if edge not in index:
            index[edge] = len(bucket._items)
            bucket._items.append(edge)

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

    def refresh_involving(self, states: set[int]) -> None:
        """Recompute every effective class that involves one of ``states``.

        Called after node state changes: only classes touching an old or
        new state of a changed node can have gained or lost pairs.  The
        visit order (each of ``states`` against every present state and
        every one of ``states``, in set iteration order) is part of the
        seeded law.  The visit plan is memoized under ``states`` in
        iteration order plus the present states in ``counts`` order (see
        the module docstring)."""
        key = (*states, -1, *self.counts)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._memo_plan(key, states)
        self._recount(plan)

    def _memo_plan(
        self, key: tuple[int, ...], states: set[int]
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
                    classes = tuple(
                        (lo, hi, c) for c in (0, 1) if self._eff(lo, hi, c)
                    )
                    entry = known[pair] = (pair, classes) if classes else ()
                if entry:
                    plan.append(entry)
            done.add(x)
        return tuple(plan)

    def _recount(self, plan: tuple[_Entry, ...]) -> None:
        """Recount every class of ``plan`` in order: pop it from
        ``weights`` and re-insert it, changed weight or not."""
        counts = self.counts
        edges = self.edges
        weights = self.weights
        total = self.total
        for pair, classes in plan:
            lo, hi = pair
            na = counts.get(lo, 0)
            if lo == hi:
                pairs = na * (na - 1) // 2
            else:
                pairs = na * counts.get(hi, 0)
            bucket = edges.get(pair)
            n_edges = len(bucket._items) if bucket is not None else 0
            for key in classes:
                weight = n_edges if key[2] else pairs - n_edges
                old = weights.pop(key, 0)
                if weight:
                    weights[key] = weight
                total += weight - old
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
    # Sampling (the indexed walk inlines both draws; these methods draw
    # exactly what it draws)
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
