"""Redundancy-coded spanning line — the adversarial-axis constructor.

:class:`FTGlobalLine` repairs crash damage by dissolving the whole
damaged fragment back to free material — correct, but every fault costs
a fragment rebuild, the repair wave sacrifices leaders, and the
protocol has *no* defense against byzantine state corruption: a faked
``q0`` that keeps its line edges wedges the construction forever
(degree-3 tangles), and a faked second leader triggers spurious merges.

:class:`RCGlobalLine` ("redundancy-coded") hardens the line
construction along three independent axes:

* **Crown repair.**  An edge-deletion notification *crowns* the
  exposed fragment end as a fresh leader in place
  (``on_edge_loss(q2) = l0``), so the leaderless half of a cut line is
  a valid line again in zero interactions; only merge losers dissolve.
  Crucially, no rule ever creates an edge between two non-free nodes —
  leader encounters *dissolve* the losing line (``(l, l, 0) ->
  (e, l, 0)``, faster-global-line style) instead of concatenating, so
  the active graph stays acyclic and every component provably keeps a
  leader or a dissolve carrier ``e``: the splice failure modes (rings,
  leaderless lines) are unreachable by construction.
* **Leader survival with a licensing budget.**  Leaders carry a budget
  and a flavor: ``l0..lk`` attached to a line end, ``f0..fk`` free
  (isolated).  The dissolve wave releases leaders instead of killing
  them (``(e, l, 1) -> (q0, f, 0)``), and a budget-``b`` leader spends
  its first ``k - b`` free-node encounters *licensing* indexed spares
  ``s1..sk`` instead of growing the line — the redundancy "code": up
  to ``k`` nodes are held in reserve, outside the line, where faults
  cannot partition them.  Duplicate spares of equal index annihilate
  down to one.
* **Sanitizer rules.**  Free material (``q0``, spares, and free-flavor
  leaders) actively *audits* its incident edges: any active edge at a
  free node means a byzantine fault corrupted a line node into free
  state, so the edge is cut and the far endpoint demoted to its
  post-damage state (``q2`` is re-crowned, an attached leader goes
  free).  This is what :class:`FTGlobalLine` lacks — its fake-``q0``
  wedges are unreachable-state configurations with no applicable rule.

All repair and sanitizer states are unreachable in fault-free runs
(with the first ``k`` growth steps diverted to spare licensing), and
the target is *redundancy-coded*: a spanning line over the non-spare
nodes plus at most ``k`` isolated, distinctly-indexed spares.

What remains out of reach — deliberately — is *silent* edge removal,
the edge-flag lies of ``byzantine`` faults: an unnotified cut leaves
both stubs believing they are internal, exactly the wreck the FTNC
2019 impossibility results say is unrepairable without notifications.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_spanning_line
from repro.core.params import Param
from repro.core.protocol import State, TableProtocol
from repro.protocols.registry import register_protocol


def _l(b: int) -> State:
    """Attached leader (degree 1, at its line's end) with budget ``b``."""
    return f"l{b}"


def _f(b: int) -> State:
    """Free leader (degree 0, rebuilding) with budget ``b``."""
    return f"f{b}"


def _s(i: int) -> State:
    """The index-``i`` licensed spare."""
    return f"s{i}"


@register_protocol(
    "rc-global-line",
    aliases=("redundancy-coded-global-line",),
    params=(Param("k", int, default=2, minimum=0, help="spare budget"),),
    description="redundancy-coded line: crown repair, surviving leaders,"
    " k spares, byzantine sanitizers",
    target="self-reported",
)
class RCGlobalLine(TableProtocol):
    """Redundancy-coded spanning line (``3k + 7`` states).

    States: ``q0`` (free), ``q1`` (endpoint), ``q2`` (internal), ``e``
    (dissolve carrier), ``l0..lk`` / ``f0..fk`` (attached / free
    leaders with licensing budget), ``s1..sk`` (indexed spares).

    The leader flavor tracks its degree — attached leaders sit at a
    line end (degree 1), free leaders are isolated (degree 0) — which
    is what lets a merge resolve its loser *locally and safely*: a
    free loser is simply released as ``q0``, an attached loser becomes
    the dissolve carrier ``e`` of its own line.  (A flavorless loser
    would either strand an isolated ``e`` or orphan a line.)

    The rule table is built programmatically from ``k`` in four
    groups: construction, leader encounters, the dissolve wave, and
    the sanitizer audit of free-material edges.  See the module
    docstring for the design rationale.  :meth:`on_neighbor_crash` and
    :meth:`on_edge_loss` share one damage map, like
    :class:`~repro.protocols.ft_line.FTGlobalLine` — except that every
    exposed fragment end is *crowned* (``q2 -> l0``) rather than
    dissolved, and leaders survive by going free.
    """

    #: See :mod:`repro.verify` — the lints close the state census over
    #: the notification hooks for these families, and the model checker
    #: probes edge-loss recovery from every stable configuration.
    fault_claims = ("crash", "edge-loss")

    def __init__(self, k: int = 2) -> None:
        self.k = k
        attached = [_l(b) for b in range(k + 1)]
        free_leaders = [_f(b) for b in range(k + 1)]
        spares = [_s(i) for i in range(1, k + 1)]
        self.leader_states = frozenset(attached) | frozenset(free_leaders)
        self._attached_states = frozenset(attached)
        self._free_leader_states = frozenset(free_leaders)
        self._spare_states = frozenset(spares)

        rules: dict[tuple[State, State, int], tuple[State, State, int]] = {}
        # --- Construction. ---
        rules[("q0", "q0", 0)] = ("q1", _l(0), 1)
        for b in range(k):
            # A leader below full budget licenses a spare instead of
            # growing the line (either flavor keeps its flavor: no
            # edge is involved).
            rules[(_l(b), "q0", 0)] = (_l(b + 1), _s(b + 1), 0)
            rules[(_f(b), "q0", 0)] = (_f(b + 1), _s(b + 1), 0)
        for b in range(k):
            rules[(_l(b), "q", 0)] = (_l(b + 1), _s(b + 1), 0)
            rules[(_f(b), "q", 0)] = (_f(b + 1), _s(b + 1), 0)
        # Full-budget growth: an attached leader slides onto the new
        # node; a free leader seeds a fresh two-line.
        rules[(_l(k), "q0", 0)] = ("q2", _l(k), 1)
        rules[(_f(k), "q0", 0)] = (_l(k), "q1", 1)
        rules[(_l(k), "q", 0)] = ("q2", _l(k), 1)
        rules[(_f(k), "q", 0)] = (_l(k), "q1", 1)
        # --- Leader encounters (one orientation each; never an edge
        # --- creation, so the active graph stays acyclic). ---
        for a in range(k + 1):
            for b in range(a, k + 1):
                # Attached loser: dissolve its line from its end.
                rules[(_l(a), _l(b), 0)] = ("e", _l(b), 0)
                # Adjacent attached pair = a two-line: demote cheaply.
                rules[(_l(a), _l(b), 1)] = ("q1", _l(b), 1)
                # Free loser: isolated, release it outright.
                rules[(_f(a), _f(b), 0)] = ("q0", _f(b), 0)
        for a in range(k + 1):
            for b in range(k + 1):
                # Attached beats free regardless of budget (duplicate
                # spares re-licensed by the winner annihilate anyway).
                rules[(_f(a), _l(b), 0)] = ("q0", _l(b), 0)
        # --- Spare dedup: same index annihilates down to one. ---
        for s in spares:
            rules[(s, s, 0)] = (s, "q0", 0)
        # --- Dissolve wave (merge losers only; cut fragments are
        # --- crowned by the notification hooks instead).  Released
        # --- nodes come out as *inert* free material ``q`` — unlike
        # --- ``q0`` it cannot seed fresh competitor lines, so a
        # --- dissolution monotonically feeds the surviving leaders
        # --- (the Faster-Global-Line trick). ---
        rules[("e", "q2", 1)] = ("q", "e", 0)
        rules[("e", "q1", 1)] = ("q", "q", 0)
        rules[("e", "e", 1)] = ("q", "q", 0)
        for b in range(k + 1):
            # The wave releases leaders instead of killing them.
            rules[("e", _l(b), 1)] = ("q", _f(b), 0)
        # --- Sanitizers (unreachable without byzantine faults). ---
        # An active edge at free material means the free node is a
        # corrupted ex-line node still holding real edges: cut one and
        # demote the far endpoint to its post-damage state.  Free
        # leaders audit too — a mis-flavored leader thereby sheds its
        # own stale edges, crowning the fragment it abandons.
        exposed: dict[State, State] = {
            "q0": "q0", "q": "q", "q1": "q0", "q2": _l(0), "e": "q0",
        }
        for s in spares:
            exposed[s] = s
        for b in range(k + 1):
            exposed[_l(b)] = _f(b)
            exposed[_f(b)] = _f(b)
        for auditor in ["q0", "q", *spares, *free_leaders]:
            for other, demoted in exposed.items():
                if (auditor, other, 1) in rules or (other, auditor, 1) in rules:
                    continue
                rules[(auditor, other, 1)] = (auditor, demoted, 0)

        super().__init__(
            name="RC-Global-Line",
            initial_state="q0",
            rules=rules,
        )

        # Damage map shared by both notification hooks.  The exposed
        # end of a cut fragment is crowned in place; an attached
        # leader that loses its edge goes free with its budget; free
        # material (only edged at all when a byzantine fault corrupted
        # a line node, hence covered for the missing-hook lint) stays
        # put — the sanitizer rules do the actual cleanup.
        self._on_damage: dict[State, State] = {"q1": "q0", "q2": _l(0), "e": "q0"}
        for b in range(k + 1):
            self._on_damage[_l(b)] = _f(b)
        for s in ("q0", "q", *spares, *free_leaders):
            self._on_damage[s] = s

    def on_neighbor_crash(self, state: State) -> State | None:
        return self._on_damage.get(state)

    def on_edge_loss(self, state: State) -> State | None:
        return self._on_damage.get(state)

    def stabilized(self, config: Configuration) -> bool:
        """Stable iff no free or dissolving material remains, a single
        leader exists, and every spare is deduplicated *and* isolated
        — as is the leader if it is free-flavored.  The isolation
        checks matter for soundness: an edged spare or free leader
        could still fire a sanitizer rule and change the output
        graph."""
        count = config.count_in_state
        if count("q0") or count("q") or count("e"):
            return False
        if sum(count(s) for s in self.leader_states) != 1:
            return False
        for s in self._spare_states:
            if count(s) > 1:
                return False
        for u in range(config.n):
            state = config.state(u)
            if state in self._spare_states or state in self._free_leader_states:
                if config.degree(u):
                    return False
        return True

    def target_reached(self, config: Configuration) -> bool:
        """A spanning line over the non-spare nodes, plus isolated
        spares with pairwise-distinct indices — the redundancy-coded
        target."""
        seen_spares: set[State] = set()
        line_nodes: list[int] = []
        for u in range(config.n):
            state = config.state(u)
            if state in self._spare_states:
                if state in seen_spares or config.degree(u):
                    return False
                seen_spares.add(state)
            else:
                line_nodes.append(u)
        return is_spanning_line(config.active_subgraph(line_nodes))
