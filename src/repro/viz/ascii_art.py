"""Terminal renderings of configurations.

Used by the figure benchmarks to reproduce the paper's illustrations
(Figure 1's star stages, Figure 2's line collection, Figure 4/7's
partitions) as text.
"""

from __future__ import annotations

from collections import Counter

from repro.core.configuration import Configuration
from repro.core.graphs import nx


def state_summary(config: Configuration) -> str:
    """One-line histogram: ``q2:17 l:1 q1:2``."""
    counts = Counter(config.states())
    parts = [f"{state}:{count}" for state, count in sorted(
        counts.items(), key=lambda kv: (-kv[1], str(kv[0]))
    )]
    return " ".join(parts)


def component_summary(config: Configuration) -> str:
    """Describe each active component: size, shape hint, states."""
    graph = config.output_graph()
    lines = []
    for component in sorted(
        nx.connected_components(graph), key=len, reverse=True
    ):
        sub = graph.subgraph(component)
        size = len(component)
        edges = sub.number_of_edges()
        degrees = sorted(d for _, d in sub.degree())
        if size == 1:
            shape = "isolated"
        elif edges == size - 1 and degrees[-1] <= 2:
            shape = "line"
        elif edges == size and degrees == [2] * size:
            shape = "cycle"
        elif edges == size - 1 and degrees[-1] == size - 1:
            shape = "star"
        elif edges == size * (size - 1) // 2:
            shape = "clique"
        else:
            shape = "other"
        states = Counter(config.state(u) for u in component)
        state_text = ",".join(
            f"{s}x{c}" if c > 1 else f"{s}"
            for s, c in sorted(states.items(), key=lambda kv: str(kv[0]))
        )
        lines.append(f"  [{shape:8s}] |V|={size:<3d} |E|={edges:<3d} {state_text}")
    return "\n".join(lines)


def render_line(config: Configuration, order: list[int]) -> str:
    """Render an ordered path of nodes as ``(s0)--(s1)--...``."""
    return "--".join(f"({config.state(u)})" for u in order)


def render_star(config: Configuration) -> str:
    """Render a star configuration compactly: center + ray count."""
    graph = config.output_graph()
    degrees = dict(graph.degree())
    if not degrees:
        return "(empty)"
    center = max(degrees, key=degrees.get)
    return (
        f"center node {center} [{config.state(center)}] "
        f"-> {degrees[center]} rays"
    )


def adjacency_art(config: Configuration, max_n: int = 32) -> str:
    """Compact active-adjacency matrix (# = active edge)."""
    n = config.n
    if n > max_n:
        return f"(adjacency suppressed: n={n} > {max_n})"
    rows = []
    for u in range(n):
        row = "".join(
            "#" if config.edge_state(u, v) else "." if u != v else " "
            for v in range(n)
        )
        rows.append(f"{u:>3d} {row}")
    return "\n".join(rows)
