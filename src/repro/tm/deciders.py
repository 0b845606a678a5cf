"""Graph-language deciders for the generic constructors — Section 6.

The paper's universal results quantify over *any* graph language decidable
by a space-bounded TM.  Two decider families are provided behind one
interface:

* :class:`TMDecider` — a genuine raw Turing machine run on the
  adjacency-encoding tape.  Several small languages are implemented at the
  transition-table level (single rightward scans, so they respect the
  bounded tape), and they also run *on a line of agents* via
  :class:`repro.tm.line_machine.LineMachineProtocol` — the full
  paper pipeline with no shortcuts.
* :class:`PythonDecider` — a Python predicate with a declared space bound,
  standing in for heavier languages (connectivity, regularity, ...).  The
  surrounding machinery treats deciders as black boxes, exactly as the
  paper's proofs do (see DESIGN.md, Substitutions).
"""

from __future__ import annotations

from typing import Callable

from repro.core.graphs import nx
from repro.tm.encoding import encode_graph
from repro.tm.machine import BLANK, LEFT, RIGHT, STAY, TuringMachine


class Decider:
    """A decidable graph language: name, space bound, membership test."""

    name: str = "decider"
    #: Human-readable space bound in terms of the input length l = Θ(k²).
    space_order: str = "O(1)"

    def decide(self, graph: nx.Graph) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} space={self.space_order}>"


class PythonDecider(Decider):
    """Wrap a Python predicate with a declared space bound."""

    def __init__(
        self, name: str, predicate: Callable[[nx.Graph], bool], space_order: str
    ) -> None:
        self.name = name
        self.space_order = space_order
        self._predicate = predicate

    def decide(self, graph: nx.Graph) -> bool:
        return bool(self._predicate(graph))


class TMDecider(Decider):
    """Run a raw TM on the upper-triangle adjacency tape (plus one blank
    sentinel marking the end of input)."""

    def __init__(self, machine: TuringMachine, space_order: str = "O(1)") -> None:
        self.name = machine.name
        self.space_order = space_order
        self.machine = machine

    def tape_for(self, graph: nx.Graph) -> list[str]:
        return encode_graph(graph) + [BLANK]

    def decide(self, graph: nx.Graph) -> bool:
        return self.machine.accepts(self.tape_for(graph))


# ----------------------------------------------------------------------
# Genuine transition-table machines (single rightward scans).
# ----------------------------------------------------------------------

def has_edge_machine() -> TuringMachine:
    """Accept iff the graph has at least one edge."""
    return TuringMachine(
        name="TM-has-edge",
        transitions={
            ("scan", "0"): ("scan", "0", RIGHT),
            ("scan", "1"): ("accept", "1", STAY),
            ("scan", BLANK): ("reject", BLANK, STAY),
        },
        start="scan",
    )


def empty_graph_machine() -> TuringMachine:
    """Accept iff the graph has no edges."""
    return TuringMachine(
        name="TM-empty-graph",
        transitions={
            ("scan", "0"): ("scan", "0", RIGHT),
            ("scan", "1"): ("reject", "1", STAY),
            ("scan", BLANK): ("accept", BLANK, STAY),
        },
        start="scan",
    )


def complete_graph_machine() -> TuringMachine:
    """Accept iff every pair is an edge."""
    return TuringMachine(
        name="TM-complete-graph",
        transitions={
            ("scan", "1"): ("scan", "1", RIGHT),
            ("scan", "0"): ("reject", "0", STAY),
            ("scan", BLANK): ("accept", BLANK, STAY),
        },
        start="scan",
    )


def even_edges_machine() -> TuringMachine:
    """Accept iff |E| is even — a 2-state parity scan."""
    return TuringMachine(
        name="TM-even-edges",
        transitions={
            ("even", "0"): ("even", "0", RIGHT),
            ("even", "1"): ("odd", "1", RIGHT),
            ("odd", "0"): ("odd", "0", RIGHT),
            ("odd", "1"): ("even", "1", RIGHT),
            ("even", BLANK): ("accept", BLANK, STAY),
            ("odd", BLANK): ("reject", BLANK, STAY),
        },
        start="even",
    )


def exactly_one_edge_machine() -> TuringMachine:
    """Accept iff |E| = 1."""
    return TuringMachine(
        name="TM-exactly-one-edge",
        transitions={
            ("none", "0"): ("none", "0", RIGHT),
            ("none", "1"): ("one", "1", RIGHT),
            ("one", "0"): ("one", "0", RIGHT),
            ("one", "1"): ("reject", "1", STAY),
            ("none", BLANK): ("reject", BLANK, STAY),
            ("one", BLANK): ("accept", BLANK, STAY),
        },
        start="none",
    )


def zigzag_nonempty_machine() -> TuringMachine:
    """Accept iff the graph has at least one edge, verified by a
    *two-pass* zig-zag scan (right, then back left to the origin):
    exercises leftward head moves on the agent line (Figure 5's l/r
    marks).  The origin cell is marked 'A' first so the leftward pass
    never runs off the bounded tape."""
    return TuringMachine(
        name="TM-zigzag-nonempty",
        transitions={
            # Mark the origin; a '1' at the origin already decides.
            ("mark0", "0"): ("scan", "A", RIGHT),
            ("mark0", "1"): ("accept", "1", STAY),
            ("mark0", BLANK): ("reject", BLANK, STAY),
            # Rightward scan for a '1'.
            ("scan", "0"): ("scan", "0", RIGHT),
            ("scan", "1"): ("retl", "1", LEFT),
            ("scan", BLANK): ("retl0", BLANK, LEFT),
            # A '1' was found: return to the origin, restore it, accept.
            ("retl", "0"): ("retl", "0", LEFT),
            ("retl", "A"): ("accept", "0", STAY),
            # No '1' anywhere: return, restore the origin, reject.
            ("retl0", "0"): ("retl0", "0", LEFT),
            ("retl0", "A"): ("reject", "0", STAY),
        },
        start="mark0",
    )


# ----------------------------------------------------------------------
# Python deciders for heavier languages.
# ----------------------------------------------------------------------

def connected_decider() -> PythonDecider:
    """Connectivity — decidable in O(log² l) space (Savitch) and trivially
    in O(n) space; probability -> 1 in G_{k,1/2}, so the universal loop
    accepts quickly (paper Remark 1)."""
    return PythonDecider(
        "connected",
        lambda g: g.number_of_nodes() > 0 and nx.is_connected(g),
        space_order="O(log² l)",
    )


def has_min_degree_decider(d: int) -> PythonDecider:
    return PythonDecider(
        f"min-degree>={d}",
        lambda g: all(deg >= d for _, deg in g.degree()),
        space_order="O(log l)",
    )


def k_regular_decider(k: int) -> PythonDecider:
    return PythonDecider(
        f"{k}-regular",
        lambda g: all(deg == k for _, deg in g.degree()),
        space_order="O(log l)",
    )


def triangle_free_decider() -> PythonDecider:
    def no_triangle(g: nx.Graph) -> bool:
        return all(c == 0 for c in nx.triangles(g).values())

    return PythonDecider("triangle-free", no_triangle, space_order="O(log l)")


def tree_decider() -> PythonDecider:
    return PythonDecider(
        "tree",
        lambda g: g.number_of_nodes() > 0 and nx.is_tree(g),
        space_order="O(log² l)",
    )


def bipartite_decider() -> PythonDecider:
    return PythonDecider(
        "bipartite", lambda g: nx.is_bipartite(g), space_order="O(log² l)"
    )


def hamiltonian_path_graph_decider() -> PythonDecider:
    """Spanning-line recognizer: is the graph itself one simple path?"""
    from repro.core.graphs import is_spanning_line

    return PythonDecider(
        "spanning-line", is_spanning_line, space_order="O(log l)"
    )


#: Registry of named deciders used by benchmarks and examples.
def registry() -> dict[str, Decider]:
    return {
        "has-edge": TMDecider(has_edge_machine()),
        "empty": TMDecider(empty_graph_machine()),
        "complete": TMDecider(complete_graph_machine()),
        "even-edges": TMDecider(even_edges_machine()),
        "one-edge": TMDecider(exactly_one_edge_machine()),
        "zigzag-nonempty": TMDecider(zigzag_nonempty_machine()),
        "connected": connected_decider(),
        "min-degree-1": has_min_degree_decider(1),
        "2-regular": k_regular_decider(2),
        "triangle-free": triangle_free_decider(),
        "tree": tree_decider(),
        "bipartite": bipartite_decider(),
        "spanning-line": hamiltonian_path_graph_decider(),
    }
