"""Zero-waste construction — Theorem 17.

For languages L whose members contain a connected bounded-degree subgraph
of logarithmic order (condition (i)) and are decidable in logarithmic
space (condition (ii)), the simulator does not need to be thrown away: a
logarithmic subset S of the nodes first receives a random bounded-degree
graph (the future TM), the TM then draws a random graph on all remaining
pairs (every edge except those inside S), and the result — on *all* n
nodes — is tested against L.  Accept → freeze; reject → redraw.

Unlike Theorems 14-16 the construction is not equiprobable over L (the
paper corrects its earlier claim): graphs with more logarithmic
bounded-degree cores are drawn more often.  :func:`core_multiplicity`
quantifies this for the statistical benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from repro.core.errors import ConvergenceError, SimulationError
from repro.core.graphs import nx
from repro.protocols.bounds import log2_ceil
from repro.tm.deciders import Decider


@dataclass
class NoWasteReport:
    """Outcome of a Theorem 17 construction."""

    graph: nx.Graph
    attempts: int
    core_nodes: list[int]
    core_degree_bound: int

    @property
    def waste(self) -> int:
        return 0


def random_bounded_degree_graph(
    nodes: list[int], d: int, rng: random.Random
) -> nx.Graph:
    """A random connected graph on ``nodes`` with max degree <= d
    (d >= 2): start from a random spanning path (degree <= 2), then add
    random extra edges while respecting the bound."""
    if d < 2:
        raise SimulationError(f"core degree bound must be >= 2, got {d}")
    order = list(nodes)
    rng.shuffle(order)
    graph = nx.Graph()
    graph.add_nodes_from(order)
    nx.add_path(graph, order)
    candidates = [
        (u, v)
        for u, v in combinations(order, 2)
        if not graph.has_edge(u, v)
    ]
    rng.shuffle(candidates)
    for u, v in candidates:
        if graph.degree(u) < d and graph.degree(v) < d and rng.random() < 0.5:
            graph.add_edge(u, v)
    return graph


def core_multiplicity(graph: nx.Graph, core_order: int, d: int) -> int:
    """Number of induced connected subgraphs of ``core_order`` nodes with
    max degree <= d — the equiprobability-breaking weight of Theorem 17
    (exponential scan; use on small graphs only)."""
    count = 0
    for nodes in combinations(graph.nodes(), core_order):
        sub = graph.subgraph(nodes)
        if not nx.is_connected(sub):
            continue
        if all(deg <= d for _, deg in sub.degree()):
            count += 1
    return count


class NoWasteConstructor:
    """Construct L on the full population (useful space n)."""

    def __init__(self, decider: Decider, core_degree_bound: int = 3) -> None:
        self.decider = decider
        self.core_degree_bound = core_degree_bound

    def construct(
        self,
        n: int,
        *,
        seed: int | None = None,
        max_attempts: int = 10_000,
    ) -> NoWasteReport:
        if n < 4:
            raise SimulationError(f"need n >= 4, got {n}")
        rng = random.Random(seed)
        core_order = max(2, log2_ceil(n))
        core_nodes = list(range(core_order))
        outside_pairs = [
            (u, v)
            for u, v in combinations(range(n), 2)
            if not (u in set(core_nodes) and v in set(core_nodes))
        ]
        for attempt in range(1, max_attempts + 1):
            # (a) a fresh random bounded-degree core (the TM's body);
            core = random_bounded_degree_graph(
                core_nodes, self.core_degree_bound, rng
            )
            # (b) the TM draws a random graph on every other pair;
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(core.edges())
            for u, v in outside_pairs:
                if rng.random() < 0.5:
                    graph.add_edge(u, v)
            # (c) decide membership of the *whole* graph.
            if self.decider.decide(graph):
                return NoWasteReport(
                    graph=graph,
                    attempts=attempt,
                    core_nodes=core_nodes,
                    core_degree_bound=self.core_degree_bound,
                )
        raise ConvergenceError(
            f"language {self.decider.name!r} not hit within {max_attempts} "
            f"no-waste draws (n={n})",
            0,
        )
