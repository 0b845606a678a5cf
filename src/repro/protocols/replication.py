"""Graph replication — paper Protocol 9 (Theorem 13).

The population starts with an *input graph* G1 pre-installed on a subset
V1 (nodes in state ``q0``, E1 active); the remaining nodes V2 start in
``r0``.  The protocol (a) matches every V1 node to a distinct V2 node,
(b) elects a unique leader in V1 by pairwise elimination, and (c) has the
leader random-walk over V1, repeatedly selecting a pair (u, v), reading
the state of edge uv and instructing the matched nodes (mu(u), mu(v)) to
copy it.  Stabilizes to a replica of G1 on V2 with zero waste in
Θ(n⁴ log n) expected steps.

This is the paper's only randomized (PREL) direct constructor: the
leader's walk/copy decisions are fair coin flips.

``Qout`` — the paper sets ``Qout = {r, ra, rd}`` so that V1 and the
matching edges are not part of the output.  We additionally include ``r'``
(``rp``): the unique leader keeps re-copying edges forever, so matched V2
nodes revisit ``r'`` infinitely often, and excluding it would make the
output graph's node set flicker forever, contradicting stabilization.
With ``r'`` included the output is the active subgraph induced by the
matched V2 nodes and it stabilizes exactly as Theorem 13 states.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.errors import ProtocolError, SimulationError
from repro.core.graphs import graph_spec, isomorphic, named_graph, nx
from repro.core.protocol import TableProtocol, coin_flip
from repro.protocols.registry import Param, register_protocol

#: States of the replica (V2) side of the matching.  Everything else —
#: ``q0`` and the leader-election/copy states — lives on the V1 side.
_V2_STATES = frozenset({"r0", "r", "ra", "rd", "rp"})


class GraphReplication(TableProtocol):
    """Protocol 9 — *Graph-Replication* (12 states).

    Parameters
    ----------
    input_graph:
        The connected graph G1 to replicate.  Its nodes are relabeled onto
        ``0 .. |V1|-1``; V2 occupies the remaining population.
    """

    def __init__(self, input_graph: nx.Graph) -> None:
        if input_graph.number_of_nodes() < 1:
            raise ProtocolError("input graph must have at least one node")
        if input_graph.number_of_nodes() > 1 and not nx.is_connected(input_graph):
            raise ProtocolError("Graph-Replication requires a connected input")
        relabel = {u: i for i, u in enumerate(sorted(input_graph.nodes()))}
        self.input_graph = nx.relabel_nodes(input_graph, relabel)
        rules: dict = {
            # Matching every u in V1 to a distinct v in V2.
            ("q0", "r0", 0): ("l", "r", 1),
            # Leader election in V1.
            ("l", "l", 0): ("l", "f", 0),
            ("l", "l", 1): ("l", "f", 1),
            # Copy initiation: with prob. 1/2 mark the pair for copying,
            # with prob. 1/2 the leader just continues its random walk.
            ("l", "f", 0): coin_flip(("ld", "fd", 0), ("f", "l", 0)),
            ("l", "f", 1): coin_flip(("la", "fa", 1), ("f", "l", 1)),
            # Marked V1 nodes inform their matched V2 nodes.
            ("la", "r", 1): ("la", "ra", 1),
            ("ld", "r", 1): ("ld", "rd", 1),
            ("fa", "r", 1): ("fa", "ra", 1),
            ("fd", "r", 1): ("fd", "rd", 1),
            # The copy is applied on the V2 side.
            ("ra", "ra", 0): ("rp", "rp", 1),
            ("ra", "ra", 1): ("rp", "rp", 1),
            ("rd", "rd", 0): ("rp", "rp", 0),
            ("rd", "rd", 1): ("rp", "rp", 0),
            # The V2 nodes acknowledge back to their matched V1 nodes.
            ("rp", "la", 1): ("r", "l", 1),
            ("rp", "ld", 1): ("r", "l", 1),
            ("rp", "fa", 1): ("r", "f", 1),
            ("rp", "fd", 1): ("r", "f", 1),
            # Leader election also applies to marked leaders, preventing
            # deadlock while several leaders coexist.
            ("la", "l", 0): ("la", "f", 0),
            ("la", "l", 1): ("la", "f", 1),
            ("ld", "l", 0): ("ld", "f", 0),
            ("ld", "l", 1): ("ld", "f", 1),
            ("la", "la", 0): ("la", "fa", 0),
            ("la", "la", 1): ("la", "fa", 1),
            ("la", "ld", 0): ("la", "fd", 0),
            ("la", "ld", 1): ("la", "fd", 1),
            ("ld", "ld", 0): ("ld", "fd", 0),
            ("ld", "ld", 1): ("ld", "fd", 1),
        }
        super().__init__(
            name="Graph-Replication",
            initial_state="q0",
            rules=rules,
            output_states=("r", "ra", "rd", "rp"),
        )

    # ------------------------------------------------------------------
    @property
    def n1(self) -> int:
        return self.input_graph.number_of_nodes()

    def initial_configuration(self, n: int) -> Configuration:
        n1 = self.n1
        if n - n1 < n1:
            raise SimulationError(
                f"replication needs |V2| >= |V1|: n={n} but |V1|={n1}"
            )
        states = ["q0"] * n1 + ["r0"] * (n - n1)
        return Configuration(states, self.input_graph.edges())

    # ------------------------------------------------------------------
    def matching(self, config: Configuration) -> dict[int, int]:
        """The V1 -> V2 matching induced by the active cross edges.

        Membership is decided by *state*, not node id: the dynamics are
        anonymous, so the certificate must hold under any relabeling of
        the nodes (the model checker's canonical quotient exercises
        exactly that; node ``n1`` being a V2 node is an accident of the
        concrete initial configuration).
        """
        mu: dict[int, int] = {}
        for u in range(config.n):
            if config.state(u) in _V2_STATES:
                continue
            partners = [
                v for v in config.neighbors(u)
                if config.state(v) in _V2_STATES
            ]
            if len(partners) == 1:
                mu[u] = partners[0]
        return mu

    def _copy_correct(self, config: Configuration) -> bool:
        """All V1 nodes matched and the matched V2 subgraph mirrors the
        active V1-side subgraph exactly (no missing and no extra edges).
        No rule ever rewrites an edge between two V1-side nodes, so the
        V1 active subgraph *is* E1 and the comparison needs no reference
        to the initial numbering."""
        v1 = [
            u for u in range(config.n)
            if config.state(u) not in _V2_STATES
        ]
        if len(v1) != self.n1:
            return False
        mu = self.matching(config)
        if len(mu) != self.n1:
            return False
        wanted = {
            frozenset((mu[u], mu[w]))
            for i, u in enumerate(v1)
            for w in v1[i + 1:]
            if config.edge_state(u, w)
        }
        matched = set(mu.values())
        actual = {
            frozenset((u, v))
            for u, v in config.active_edges()
            if u in matched and v in matched
        }
        return wanted == actual

    def stabilized(self, config: Configuration) -> bool:
        """Stable iff a unique leader remains, no copy is in flight, and
        the V2 replica already equals G1: from then on every copy the
        unique leader initiates rewrites an edge with its correct value,
        so the output graph never changes (states keep churning)."""
        if config.count_in_state("l") != 1:
            return False
        pending = ("la", "ld", "fa", "fd", "ra", "rd", "rp", "q0")
        if any(config.count_in_state(s) for s in pending):
            return False
        return self._copy_correct(config)

    def target_reached(self, config: Configuration) -> bool:
        replica = config.output_graph(self.output_states)
        replica.remove_nodes_from(list(nx.isolates(replica)))
        if replica.number_of_nodes() != self.n1:
            # Replicas of graphs with isolated V2 nodes of degree 0 can't
            # be distinguished from unmatched nodes; G1 is connected, so
            # every replica node has degree >= 1 (except the 1-node graph).
            return self.n1 == 1 and self._copy_correct(config)
        return isomorphic(replica, self.input_graph)


@register_protocol(
    "graph-replication",
    params=(
        Param(
            "graph", graph_spec, default="ring-4",
            help="named input graph G1 (e.g. ring-16, path-8, clique-5)",
        ),
    ),
    aliases=("replication",),
    description="Protocol 9: replicate a named input graph, Theta(n^4 log n)",
)
def graph_replication(graph: str = "ring-4") -> GraphReplication:
    """Registry factory for :class:`GraphReplication`: the graph-valued
    parameter is a named-graph spec string (see
    :func:`repro.core.graphs.named_graph`), so composite constructors
    resolve from plain spec strings — ``"graph-replication:graph=ring-16"``
    — and sweep like any other registered protocol.  Remember the
    population must satisfy ``n >= 2 |V1|``."""
    return GraphReplication(named_graph(graph))
