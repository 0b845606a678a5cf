"""Graph predicates and named generators — Section 3.2 targets.

All predicates operate on :class:`networkx.Graph` outputs of
:meth:`repro.core.configuration.Configuration.output_graph`, so they apply
uniformly to full configurations and to induced subgraphs (useful-space
checks for constructions with waste).

:func:`named_graph` is the inverse direction: compact names like
``"ring-16"`` or ``"clique-5"`` build the corresponding graph, so
graph-valued registry parameters (``"graph-replication:graph=ring-16"``)
and initial-configuration overrides (``"graph:graph=path-8"``) stay
plain strings that round-trip through JSON.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from typing import TYPE_CHECKING, Any


class _LazyNetworkx:
    """The ``networkx`` module, imported on first attribute access.

    networkx is most of an entry point's import time, and most runs never
    build a graph.  Modules that need it take this one binding
    (``from repro.core.graphs import nx``) rather than importing inside
    their functions: protocol class bodies must stay byte-identical,
    because ``code_digest`` hashes their source into store keys.  Type
    checkers see the real module (the ``TYPE_CHECKING`` branch below), so
    ``nx.Graph`` annotations resolve through the same binding.  Each
    attribute is cached on first lookup, so later lookups skip
    ``__getattr__``.
    """

    def __getattr__(self, name: str) -> Any:
        import networkx

        value = getattr(networkx, name)
        setattr(self, name, value)
        return value


if TYPE_CHECKING:
    import networkx as nx
else:
    nx = _LazyNetworkx()

#: named-graph families: canonical family -> (aliases, builder(k)).
_GRAPH_FAMILIES: dict = {
    "ring": (("cycle",), lambda k: nx.cycle_graph(k)),
    "path": (("line",), lambda k: nx.path_graph(k)),
    "star": ((), lambda k: nx.star_graph(k - 1)),
    "clique": (("complete",), lambda k: nx.complete_graph(k)),
}

_FAMILY_OF_ALIAS = {
    alias: family
    for family, (aliases, _) in _GRAPH_FAMILIES.items()
    for alias in aliases
}

_NAMED_GRAPH_RE = re.compile(r"(?P<family>[a-z]+)-(?P<k>\d+)")
_GNP_RE = re.compile(r"gnp-(?P<k>\d+)-(?P<seed>\d+)")


_GRAPH_MINIMUM = {"ring": 3, "star": 2, "path": 1, "clique": 1, "gnp": 1}


def _parse_graph_name(name: str) -> tuple[str, int, int | None]:
    """Validate a named-graph spec *syntactically* (no construction) and
    return ``(canonical family, k, gnp seed or None)``."""
    text = str(name).strip().lower()
    seed = None
    match = _GNP_RE.fullmatch(text)
    if match:
        family, seed = "gnp", int(match["seed"])
    else:
        match = _NAMED_GRAPH_RE.fullmatch(text)
        if match is None:
            raise ValueError(
                f"unknown graph name {name!r} (expected e.g. ring-16, path-8, "
                "star-5, clique-4, gnp-8-42)"
            )
        family = _FAMILY_OF_ALIAS.get(match["family"], match["family"])
        if family not in _GRAPH_FAMILIES:
            raise ValueError(
                f"unknown graph family {match['family']!r} in {name!r}; "
                f"choose from {sorted(_GRAPH_FAMILIES) + sorted(_FAMILY_OF_ALIAS)}"
            )
    k = int(match["k"])
    minimum = _GRAPH_MINIMUM[family]
    if k < minimum:
        raise ValueError(f"{family} graphs need >= {minimum} nodes, got {k}")
    return family, k, seed


def graph_spec(raw) -> str:
    """Coerce/canonicalize a named-graph spec string (registry param
    type).  Validation is syntactic — the graph itself is only built by
    :func:`named_graph` when a run needs it.

    >>> graph_spec("cycle-8")
    'ring-8'
    >>> graph_spec("complete-5")
    'clique-5'
    >>> graph_spec("blob-3")
    Traceback (most recent call last):
        ...
    ValueError: unknown graph family 'blob' in 'blob-3'; choose from \
['clique', 'path', 'ring', 'star', 'complete', 'cycle', 'line']
    """
    family, k, seed = _parse_graph_name(raw)
    if family == "gnp":
        return f"gnp-{k}-{seed}"
    return f"{family}-{k}"


def named_graph(name: str) -> nx.Graph:
    """Build a graph from a compact name.

    Families: ``ring-<k>`` (alias ``cycle``, k >= 3), ``path-<k>``
    (alias ``line``), ``star-<k>`` (k nodes total, k >= 2),
    ``clique-<k>`` (alias ``complete``), and ``gnp-<k>-<seed>`` — one
    seeded draw from G(k, 1/2) (may be disconnected; constructions that
    need connectivity will reject it).  Raises :class:`ValueError` for
    unknown names, so registry param coercion reports a clean error.

    >>> sorted(named_graph("path-3").edges())
    [(0, 1), (1, 2)]
    >>> named_graph("clique-4").number_of_edges()
    6
    >>> is_spanning_ring(named_graph("ring-5"))
    True
    """
    family, k, seed = _parse_graph_name(name)
    if family == "gnp":
        # Lazy import: generic/ sits above core/ in the layering.
        from repro.generic.random_graphs import gnp

        return gnp(k, 0.5, random.Random(seed))
    return _GRAPH_FAMILIES[family][1](k)


def degree_histogram(graph: nx.Graph) -> Counter:
    """Multiset of node degrees."""
    return Counter(d for _, d in graph.degree())


def is_spanning_line(graph: nx.Graph) -> bool:
    """Connected, 2 nodes of degree 1 and n-2 of degree 2 (n >= 2).

    A single edge on two nodes is the smallest spanning line.
    """
    n = graph.number_of_nodes()
    if n < 2:
        return False
    if graph.number_of_edges() != n - 1:
        return False
    hist = degree_histogram(graph)
    if hist[1] != 2 or hist[2] != n - 2:
        return False
    return nx.is_connected(graph)


def is_spanning_ring(graph: nx.Graph) -> bool:
    """Connected and every node has degree 2 (n >= 3)."""
    n = graph.number_of_nodes()
    if n < 3:
        return False
    if any(d != 2 for _, d in graph.degree()):
        return False
    return nx.is_connected(graph)


def is_spanning_star(graph: nx.Graph) -> bool:
    """One center of degree n-1 and n-1 peripherals of degree 1 (n >= 2)."""
    n = graph.number_of_nodes()
    if n < 2:
        return False
    if graph.number_of_edges() != n - 1:
        return False
    hist = degree_histogram(graph)
    if n == 2:
        return hist[1] == 2
    return hist[n - 1] == 1 and hist[1] == n - 1


def is_cycle_cover(graph: nx.Graph, waste: int = 0) -> bool:
    """Node-disjoint cycles spanning all but at most ``waste`` nodes.

    The non-cycle leftover (the waste) must consist of nodes of degree
    < 2: isolated nodes or a single matched pair, per Theorem 5.
    """
    leftover = [u for u, d in graph.degree() if d != 2]
    if len(leftover) > waste:
        return False
    if any(graph.degree(u) > 2 for u in leftover):
        return False
    core = graph.subgraph([u for u, d in graph.degree() if d == 2])
    # Every degree-2 component must be a cycle: |E| == |V| per component.
    for component in nx.connected_components(core):
        sub = core.subgraph(component)
        if sub.number_of_edges() != sub.number_of_nodes():
            return False
    return True


def is_k_regular_connected(graph: nx.Graph, k: int) -> bool:
    """Connected and every node has degree exactly ``k``."""
    n = graph.number_of_nodes()
    if n < k + 1:
        return False
    if any(d != k for _, d in graph.degree()):
        return False
    return nx.is_connected(graph)


def is_almost_k_regular_connected(graph: nx.Graph, k: int) -> bool:
    """Theorem 11's guarantee: connected spanning network in which at least
    ``n - k + 1`` nodes have degree ``k`` and each of the remaining
    ``l <= k - 1`` nodes has degree in ``[l - 1, k - 1]``."""
    n = graph.number_of_nodes()
    if n < k + 1 or not nx.is_connected(graph):
        return False
    irregular = [d for _, d in graph.degree() if d != k]
    l = len(irregular)
    if l > k - 1:
        return False
    return all(l - 1 <= d <= k - 1 for d in irregular)


def is_clique_partition(graph: nx.Graph, c: int, waste: int | None = None) -> bool:
    """``floor(n/c)`` disjoint cliques of order ``c``; remaining
    ``n mod c`` nodes (default waste) must be isolated."""
    n = graph.number_of_nodes()
    if waste is None:
        waste = n % c
    cliques = 0
    stray = 0
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        size = sub.number_of_nodes()
        if size == 1:
            stray += 1
        elif size == c and sub.number_of_edges() == c * (c - 1) // 2:
            cliques += 1
        else:
            return False
    return cliques == n // c and stray <= waste


def is_perfect_matching(graph: nx.Graph) -> bool:
    """A matching of cardinality floor(n/2): every node has degree 1,
    except one isolated node when n is odd."""
    n = graph.number_of_nodes()
    hist = degree_histogram(graph)
    if n % 2 == 0:
        return hist[1] == n
    return hist[1] == n - 1 and hist[0] == 1


def is_spanning_network(graph: nx.Graph) -> bool:
    """Every node has at least one active edge (Theorem 1's target)."""
    if graph.number_of_nodes() == 0:
        return False
    return all(d >= 1 for _, d in graph.degree())


def isomorphic(g1: nx.Graph, g2: nx.Graph) -> bool:
    """Graph isomorphism via networkx (VF2)."""
    return nx.is_isomorphic(g1, g2)


def line_components(graph: nx.Graph) -> list[list[int]]:
    """Decompose a graph whose components are paths into ordered node
    lists (each path listed endpoint-to-endpoint); raises ``ValueError``
    if some component is not a path.  Isolated nodes yield singletons."""
    paths: list[list[int]] = []
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        nodes = list(component)
        if len(nodes) == 1:
            paths.append(nodes)
            continue
        endpoints = [u for u in nodes if sub.degree(u) == 1]
        if len(endpoints) != 2 or sub.number_of_edges() != len(nodes) - 1:
            raise ValueError(f"component {sorted(nodes)} is not a path")
        order = [endpoints[0]]
        prev = None
        current = endpoints[0]
        while len(order) < len(nodes):
            nxt = [w for w in sub.neighbors(current) if w != prev]
            prev, current = current, nxt[0]
            order.append(current)
        paths.append(order)
    return paths
