"""Fault-tolerant spanning line — after *Fault Tolerant Network
Constructors* (Michail, Spirakis & Theofilatos 2019).

The 2019 paper shows that in the crash-fault model *without* extra
capabilities almost nothing non-trivial is constructible, and then
restores constructibility through a minimal strengthening: when a node
crash-stops, each surviving neighbor is *notified* (here:
:meth:`repro.core.protocol.Protocol.on_neighbor_crash`).  Their
fault-tolerant constructions react to the notification by locally
**dissolving** the damaged component back into free material, which the
ordinary construction then reassembles — a restart wave instead of a
global reset.

:class:`FTGlobalLine` applies that recipe to Protocol 1
(Simple-Global-Line).  Why the base protocol is not fault tolerant on
its own: a crash can strand a *leaderless* line fragment (no rule ever
touches ``q1``/``q2`` chains without a leader) and can leave lines with
a ``q2`` endpoint, on which a walking leader ``w`` never finds the
``q1`` it needs to settle.  Both wrecks persist forever, so the
survivors never reach a spanning line.  The fault-tolerant variant
dissolves every damaged fragment and rebuilds from its freed nodes.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_spanning_line
from repro.core.protocol import State, TableProtocol
from repro.protocols.registry import register_protocol

#: State changes applied on a fault notification — crash *and* edge
#: loss.  In every reachable configuration the state determines the
#: degree (``q1``/``l``: 1, ``q2``/``w``: 2, ``r``: 1), so the notified
#: node knows whether it is now isolated (rejoin as free ``q0``) or the
#: exposed end of a damaged fragment (become the reset carrier ``r``).
#: Losing one incident edge is locally indistinguishable from losing
#: the neighbor behind it, so one map serves both hooks.
_ON_CRASH: dict[State, State] = {
    "q0": "q0",  # free node: nothing to repair, stays free
    "q1": "q0",  # endpoint lost its only neighbor: isolated, free again
    "l": "q0",   # endpoint leader lost its only neighbor: isolated
    "q2": "r",   # internal node now exposed: dissolve the fragment
    "w": "r",    # walking leader now exposed: sacrifice it, dissolve
    "r": "q0",   # reset carrier lost its remaining neighbor: done
}


@register_protocol(
    "ft-global-line",
    aliases=("fault-tolerant-global-line",),
    description="crash-tolerant Simple-Global-Line (FTNC 2019 restart wave)",
    target="spanning-line",
)
class FTGlobalLine(TableProtocol):
    """Crash-tolerant *Simple-Global-Line* (6 states).

    The five construction rules are Protocol 1's; the ``r`` (reset)
    state and its five rules implement the repair.  A crash notification
    turns each exposed fragment end into a reset carrier ``r`` (see
    ``_ON_CRASH``); the carrier walks its fragment edge by edge,
    releasing every node back to ``q0``::

        (r, q2, 1) -> (q0, r, 0)   # release self, pass the reset along
        (r, w,  1) -> (q0, l, 0)   # met the walking leader: it survives
                                   #   as an endpoint leader of the rest
        (r, q1, 1) -> (q0, q0, 0)  # reached the far endpoint: both free
        (r, l,  1) -> (q0, q0, 0)  # reached the leader end: both free
        (r, r,  1) -> (q0, q0, 0)  # two waves met on the last edge

    Every damaged fragment therefore dissolves completely (or down to a
    clean leader-headed line when the wave meets ``w``), and the freed
    ``q0`` material is reabsorbed by the ordinary growth rules.  Without
    faults the ``r`` state is unreachable and the dynamics are exactly
    Simple-Global-Line's.  The protocol tolerates any number of
    crash-stop faults with notifications, and — via the edge analogue
    :meth:`on_edge_loss`, same map — any number of *notified* edge
    deletions (``cut``/``edge-drop``/``edge-rate``): an edge loss
    exposes the same two fragment ends a crash would, so the same
    dissolve-and-rebuild wave repairs it.  *Silent* edge removal (the
    edge-flag lies of ``byzantine`` faults) still strands fragments
    without notifying anyone, exactly as in the 2019 model without
    notifications.
    """

    leader_states = frozenset({"l", "w"})
    #: The verifier's contract: the restart states are reachable only
    #: *through* these fault families' notification hooks, and the
    #: model checker probes edge-loss recovery from every stable
    #: configuration (see :mod:`repro.verify`).
    fault_claims = ("crash", "edge-loss")

    def __init__(self) -> None:
        super().__init__(
            name="FT-Global-Line",
            initial_state="q0",
            rules={
                # Protocol 1 construction rules.
                ("q0", "q0", 0): ("q1", "l", 1),
                ("l", "q0", 0): ("q2", "l", 1),
                ("l", "l", 0): ("q2", "w", 1),
                ("w", "q2", 1): ("q2", "w", 1),
                ("w", "q1", 1): ("q2", "l", 1),
                # FTNC 2019 restart wave.
                ("r", "q2", 1): ("q0", "r", 0),
                ("r", "w", 1): ("q0", "l", 0),
                ("r", "q1", 1): ("q0", "q0", 0),
                ("r", "l", 1): ("q0", "q0", 0),
                ("r", "r", 1): ("q0", "q0", 0),
            },
        )

    def on_neighbor_crash(self, state: State) -> State | None:
        return _ON_CRASH.get(state)

    def on_edge_loss(self, state: State) -> State | None:
        return _ON_CRASH.get(state)

    def stabilized(self, config: Configuration) -> bool:
        """Stable iff no free or resetting material remains and a single
        leader exists (cf. Simple-Global-Line's certificate; ``r`` nodes
        mean a repair wave is still dissolving a fragment)."""
        if config.count_in_state("q0") or config.count_in_state("r"):
            return False
        return config.count_in_state("l") + config.count_in_state("w") == 1

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_line(config.output_graph())
