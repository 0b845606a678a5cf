"""Random graph drawing — the G_{n,p} model used throughout Section 6.

The universal constructors draw a uniform random graph (G_{k,1/2}) on the
useful space by tossing one fair coin per edge; this module provides the
reference sampler plus the statistics used to check *equiprobability*
(every graph on k labelled nodes must appear with probability 2^-C(k,2)).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations
from typing import Iterable

from repro.core.graphs import nx


def gnp(k: int, p: float, rng: random.Random) -> nx.Graph:
    """One draw from G_{k,p} on nodes 0..k-1."""
    graph = nx.Graph()
    graph.add_nodes_from(range(k))
    for u, v in combinations(range(k), 2):
        if rng.random() < p:
            graph.add_edge(u, v)
    return graph


def graph_signature(graph: nx.Graph, nodes: Iterable[int] | None = None) -> int:
    """Canonical integer id of a *labelled* graph: the upper-triangle
    bitmask.  Two draws are the same labelled graph iff signatures match."""
    ordering = sorted(graph.nodes()) if nodes is None else list(nodes)
    signature = 0
    for u, v in combinations(ordering, 2):
        signature <<= 1
        if graph.has_edge(u, v):
            signature |= 1
    return signature


def chi_square_uniformity(observed: Counter, categories: int) -> float:
    """Pearson chi-square statistic of ``observed`` against the uniform
    distribution over ``categories`` outcomes (draws not seen count 0)."""
    total = sum(observed.values())
    expected = total / categories
    seen = sum(
        (count - expected) ** 2 / expected for count in observed.values()
    )
    unseen = (categories - len(observed)) * expected
    return seen + unseen


def chi_square_critical(df: int, alpha: float = 0.001) -> float:
    """Upper critical value of the chi-square distribution (via scipy)."""
    from scipy.stats import chi2

    return float(chi2.ppf(1.0 - alpha, df))


def language_probability(
    decider, k: int, samples: int, seed: int = 0
) -> float:
    """Monte-Carlo estimate of P[G in L] for G ~ G_{k,1/2} — governs the
    expected number of redraws of the universal loop (paper Remark 1)."""
    rng = random.Random(seed)
    hits = sum(
        1 for _ in range(samples) if decider.decide(gnp(k, 0.5, rng))
    )
    return hits / samples


def expected_attempts(probability: float) -> float:
    """Expected redraws of the Figure-3 loop: geometric with success
    probability P[G in L]."""
    if probability <= 0:
        return math.inf
    return 1.0 / probability
