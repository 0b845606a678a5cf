"""Spanning-ring constructors — paper Protocols 5 (Global-Ring) and 6 (2RC).

Two independent strategies:

* :class:`GlobalRing` extends Simple-Global-Line: a spanning line's
  endpoints connect and *block* (primed states); if a blocked endpoint
  later detects another component, the ring reopens (double-primed states)
  and construction resumes.  This version includes the journal's fix of
  the PODC'14 bug: lines may only close once they have length >= 2 edges.
* :class:`TwoRegularConnected` (2RC) grows a cycle cover whose components
  carry leaders; cycles coexisting with other components open up and
  re-merge until a single spanning ring remains.  Generalized to any
  degree k by :class:`repro.protocols.regular.KRegularConnected`.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_spanning_ring
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "global-ring",
    description="Protocol 5: 10-state spanning ring (with the journal fix)",
    target="spanning-ring",
)
class GlobalRing(TableProtocol):
    """Protocol 5 — *Global-Ring* (10 states).

    State glossary: ``q0`` free; ``q1``/``q2`` line endpoint/internal;
    ``l`` endpoint leader; ``lb`` (the paper's l̄) endpoint leader of a
    length-1 line, not yet allowed to close; ``w`` internal walking
    leader; ``lp``/``q2p`` (l', q2') the blocked endpoints of a closed
    ring; ``lpp``/``q2pp`` (l'', q2'') blocked endpoints that detected
    another component and must reopen.
    """

    def __init__(self) -> None:
        rules: dict = {
            # Normal line formation; a fresh 2-node line gets the guarded
            # leader lb which cannot close a ring yet (the journal fix).
            ("q0", "q0", 0): ("q1", "lb", 1),
            ("l", "q0", 0): ("q2", "l", 1),
            ("lb", "q0", 0): ("q2", "l", 1),
            # Merging: the surviving leader walks (w) to an endpoint.
            ("l", "l", 0): ("q2", "w", 1),
            ("l", "lb", 0): ("q2", "w", 1),
            ("lb", "lb", 0): ("q2", "w", 1),
            ("w", "q2", 1): ("q2", "w", 1),
            ("w", "q1", 1): ("q2", "l", 1),
            # The leader connects to the q1 endpoint, possibly closing its
            # own line into a ring; both endpoints become blocked.
            ("l", "q1", 0): ("lp", "q2p", 1),
            # Opening closed cycles after detecting another component.
            ("lpp", "q2p", 1): ("l", "q1", 0),
            ("lp", "q2pp", 1): ("l", "q1", 0),
            ("lpp", "q2pp", 1): ("l", "q1", 0),
        }
        # Another component detected: a blocked endpoint (x' for
        # x in {l, q2}) interacting over an inactive edge with any
        # unblocked state or with another blocked endpoint becomes
        # double-primed.  Plain q2 is deliberately NOT a detection state:
        # a blocked ring's own internal nodes are q2, and endpoints cannot
        # distinguish them from another component's q2 nodes — a spanning
        # ring would reopen forever.  Every other component necessarily
        # exposes a leader (l/lb/w), an endpoint q1, a free q0, or a
        # blocked endpoint, so fairness still guarantees detection.
        unblocked = ("l", "lb", "w", "q1", "q0")
        for xp, xpp in (("lp", "lpp"), ("q2p", "q2pp")):
            for y in unblocked:
                rules[(xp, y, 0)] = (xpp, y, 0)
        rules[("lp", "lp", 0)] = ("lpp", "lpp", 0)
        rules[("lp", "q2p", 0)] = ("lpp", "q2pp", 0)
        rules[("q2p", "q2p", 0)] = ("q2pp", "q2pp", 0)
        super().__init__(
            name="Global-Ring",
            initial_state="q0",
            rules=rules,
        )

    def stabilized(self, config: Configuration) -> bool:
        """Stable exactly when the ring is spanning: one blocked pair
        (lp, q2p), everything else q2, no free or unblocked-leader nodes
        (whose presence would eventually reopen the ring)."""
        if (
            config.count_in_state("lp") != 1
            or config.count_in_state("q2p") != 1
            or config.count_in_state("q2") != config.n - 2
        ):
            return False
        return config.n_active_edges == config.n

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_ring(config.output_graph())


@register_protocol(
    "2rc",
    description="Protocol 6: 6-state spanning ring via leader-carrying cycles",
    aliases=("two-regular-connected",),
    target="spanning-ring",
)
class TwoRegularConnected(TableProtocol):
    """Protocol 6 — *2RC*: the generic-approach spanning ring (6 states).

    ``qi`` = non-leader with active degree i; ``li`` = leader with active
    degree i; ``l3`` = leader that just exceeded degree 2 and must shed an
    edge (the cycle-opening mechanism).  Leaders walk their components by
    swapping and eliminate each other on contact, so a single leader
    survives; a closed cycle coexisting with other components opens via
    the l2 -> l3 -> l2 round trip.
    """

    def __init__(self) -> None:
        rules: dict = {
            ("q0", "q0", 0): ("q1", "l1", 1),
            ("q1", "q0", 0): ("q2", "q1", 1),
            ("q1", "q1", 0): ("q2", "q2", 1),
            ("l1", "l1", 0): ("l2", "q2", 1),
            ("l1", "q0", 0): ("q2", "l1", 1),
            ("l1", "q1", 0): ("q2", "l2", 1),
            # Swapping: leaders keep moving inside their components.
            ("l1", "q1", 1): ("q1", "l1", 1),
            ("l1", "q2", 1): ("q1", "l2", 1),
            ("l2", "q1", 1): ("q2", "l1", 1),
            ("l2", "q2", 1): ("q2", "l2", 1),
            # Leader elimination: one survives per component.
            ("l1", "l1", 1): ("q1", "l1", 1),
            ("l1", "l2", 1): ("q1", "l2", 1),
            ("l2", "l2", 1): ("q2", "l2", 1),
            # Opening cycles in the presence of other components.
            ("l2", "q0", 0): ("l3", "q1", 1),
            ("l2", "l1", 0): ("l3", "q2", 1),
            ("l2", "l2", 0): ("l3", "l3", 1),
            ("l3", "q1", 1): ("l2", "q0", 0),
            ("l3", "q2", 1): ("l2", "l1", 0),
            ("l3", "l1", 1): ("l2", "q0", 0),
            ("l3", "l2", 1): ("l2", "l1", 0),
            ("l3", "l3", 1): ("l2", "l2", 0),
        }
        super().__init__(
            name="2RC",
            initial_state="q0",
            rules=rules,
        )

    def stabilized(self, config: Configuration) -> bool:
        """Stable iff one l2 leader and n-1 plain q2 nodes: every
        component holds a leader, so a unique leader means a single
        component, which under all-degree-2 states is a spanning ring.
        (The leader keeps swapping around the ring forever; the output
        graph no longer changes.)"""
        return (
            config.count_in_state("l2") == 1
            and config.count_in_state("q2") == config.n - 1
        )

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_ring(config.output_graph())
