"""Graph <-> tape encodings — the Section 6 input convention.

The TM receives the random graph drawn on the useful space as an
adjacency-matrix encoding; we use the upper-triangle row-major bit string
(length l = k(k-1)/2 for a k-node graph), which is the information content
of the symmetric matrix and keeps l = Θ(k²) as in the paper.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.core.errors import EncodingError
from repro.core.graphs import nx


def order_from_length(length: int) -> int:
    """Invert l = k(k-1)/2; raises if ``length`` is not triangular."""
    k = int((1 + math.isqrt(1 + 8 * length)) // 2)
    if k * (k - 1) // 2 != length:
        raise EncodingError(
            f"tape length {length} is not k(k-1)/2 for any integer k"
        )
    return k


def encode_graph(graph: nx.Graph, nodes: list | None = None) -> list[str]:
    """Upper-triangle adjacency bits of ``graph``.

    ``nodes`` fixes the node order (defaults to sorted); bit (i, j) with
    i < j is '1' iff the edge is present.
    """
    ordering = nodes if nodes is not None else sorted(graph.nodes())
    if len(set(ordering)) != len(ordering):
        raise EncodingError("node ordering contains duplicates")
    index = {u: i for i, u in enumerate(ordering)}
    missing = set(graph.nodes()) - set(ordering)
    if missing:
        raise EncodingError(f"ordering is missing nodes: {sorted(missing)}")
    bits = []
    for u, v in combinations(ordering, 2):
        bits.append("1" if graph.has_edge(u, v) else "0")
    del index
    return bits


def decode_tape(bits: list[str]) -> nx.Graph:
    """Rebuild the graph on nodes 0..k-1 from upper-triangle bits."""
    k = order_from_length(len(bits))
    graph = nx.Graph()
    graph.add_nodes_from(range(k))
    it = iter(bits)
    for i in range(k):
        for j in range(i + 1, k):
            bit = next(it)
            if bit == "1":
                graph.add_edge(i, j)
            elif bit != "0":
                raise EncodingError(f"invalid tape symbol {bit!r}")
    return graph


def edge_bit_index(i: int, j: int, k: int) -> int:
    """Position of edge (i, j), i < j, in the upper-triangle encoding of a
    k-node graph."""
    if not 0 <= i < j < k:
        raise EncodingError(f"invalid edge ({i}, {j}) for k={k}")
    # Bits for rows 0..i-1 then the offset inside row i.
    preceding = sum(k - 1 - r for r in range(i))
    return preceding + (j - i - 1)
