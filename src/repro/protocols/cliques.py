"""Partition into cliques — paper Protocol 8 (c-Cliques, Theorem 12).

The population partitions itself into ``floor(n/c)`` cliques of order
``c`` (plus one leftover component on the remaining ``n mod c`` nodes).
A leader assembles a star of ``c-1`` followers, converts them to counting
followers ("digits"), and the followers then wire themselves to the other
followers.  Since followers cannot distinguish their own component's
followers from foreign ones, *wrong* inter-component connections form;
the leader perpetually patrols its followers' positions and two patrolling
leaders meeting across an active edge deactivate it (it must be a wrong
one — correct edges never have leaders at both endpoints).

State glossary (sizes match the paper's 5c-3):

====================  =====================================================
``l0 .. l(c-2)``      leader with i followers attached (``l0`` is q0)
``f``                 plain follower (star phase)
``f1 .. f(c-2)``      captured leader still holding i followers
``lb0 .. lb(c-2)``    leader converting its followers to digits (l-bar)
``l``                 leader of a complete component (patrol phase)
``d1 .. d(c-1)``      follower counting its active connections
``lp1 .. lp(c-1)``    leader standing in for a digit-i follower (l')
``r``                 the leader's vacated position during a patrol
====================  =====================================================
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.errors import ProtocolError
from repro.core.graphs import nx
from repro.core.protocol import TableProtocol
from repro.protocols.registry import Param, register_protocol


@register_protocol(
    "c-cliques",
    params=(Param("c", int, default=3, minimum=3, help="clique order"),),
    description="Protocol 8: partition into floor(n/c) cliques, 5c-3 states",
    shorthand=r"(?P<c>\d+)-cliques",
)
class CCliques(TableProtocol):
    """Protocol 8 — *c-Cliques* for constant ``c >= 3``.

    (For ``c = 2`` the problem degenerates to a maximum matching; see
    :class:`repro.processes.matching.MaximumMatchingProcess`.)
    """

    def __init__(self, c: int) -> None:
        if c < 3:
            raise ProtocolError(f"c-Cliques requires c >= 3, got {c}")
        self.c = c
        rules: dict = {}
        # A leader attracts isolated nodes; the c-1st follower completes
        # the component and flips the leader to the converting phase.
        for i in range(0, c - 2):
            rules[(f"l{i}", "l0", 0)] = (f"l{i + 1}", "f", 1)
        rules[(f"l{c - 2}", "l0", 0)] = ("lb1", "d1", 1)
        # Nondeterministic elimination of incomplete components: a leader
        # captures another (not larger) leader together with its group.
        for i in range(1, c - 2):
            for j in range(1, i + 1):
                rules[(f"l{i}", f"l{j}", 0)] = (f"l{i + 1}", f"f{j}", 1)
        for j in range(1, c - 1):
            rules[(f"l{c - 2}", f"l{j}", 0)] = ("lb0", f"f{j}", 1)
        # A captured leader releases its own followers one by one.
        for i in range(2, c - 1):
            rules[(f"f{i}", "f", 1)] = (f"f{i - 1}", "l0", 0)
        if c >= 3:
            rules[("f1", "f", 1)] = ("f", "l0", 0)
        # The complete component's leader converts followers to digits.
        for i in range(0, c - 2):
            rules[(f"lb{i}", "f", 1)] = (f"lb{i + 1}", "d1", 1)
        rules[(f"lb{c - 2}", "f", 1)] = ("l", "d1", 1)
        # Followers wire themselves to other followers, counting
        # connections (the count includes the leader edge, hence d1 start).
        for i in range(1, c - 1):
            for j in range(i, c - 1):
                rules[(f"d{i}", f"d{j}", 0)] = (f"d{i + 1}", f"d{j + 1}", 1)
        # Patrol: the leader temporarily takes a follower's position ...
        for i in range(1, c):
            rules[("l", f"d{i}", 1)] = ("r", f"lp{i}", 1)
        # ... two patrolling leaders across an active edge have found a
        # wrong inter-component connection and deactivate it ...
        for i in range(2, c):
            for j in range(i, c):
                rules[(f"lp{i}", f"lp{j}", 1)] = (f"lp{i - 1}", f"lp{j - 1}", 0)
        # ... and the leader returns to its own position at any time.
        for i in range(1, c):
            rules[(f"lp{i}", "r", 1)] = (f"d{i}", "l", 1)
        super().__init__(
            name=f"{c}-Cliques",
            initial_state="l0",
            rules=rules,
        )

    def _transitional_states_present(self, config: Configuration) -> bool:
        """Captured leaders still releasing or converting leaders mean the
        component structure is still in flux."""
        count = config.count_in_state
        if any(count(f"f{i}") for i in range(1, self.c - 1)):
            return True
        return any(count(f"lb{i}") for i in range(0, self.c - 1))

    def stabilized(self, config: Configuration) -> bool:
        """Stable iff the active graph decomposes into exactly
        ``floor(n/c)`` cliques of order c plus at most one leftover
        component holding the remaining ``n mod c`` nodes, with no capture
        or conversion still in flight.  (Patrolling continues forever but
        only swaps states along existing edges.)"""
        if self._transitional_states_present(config):
            return False
        c = self.c
        n = config.n
        graph = config.output_graph()
        cliques = 0
        leftover_components = 0
        leftover_size = 0
        for component in nx.connected_components(graph):
            size = len(component)
            sub = graph.subgraph(component)
            if size == c and sub.number_of_edges() == c * (c - 1) // 2:
                cliques += 1
            else:
                leftover_components += 1
                leftover_size += size
        if cliques != n // c:
            return False
        return leftover_components <= 1 and leftover_size == n % c

    def target_reached(self, config: Configuration) -> bool:
        return self.stabilized(config)
