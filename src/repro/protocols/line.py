"""Spanning-line constructors — paper Section 4 and Protocol 10.

The spanning line is the paper's most important target: it provides a total
order on the processes, which Section 6 exploits to simulate a Turing
machine and prove universality.

Four protocols are provided:

* :class:`SimpleGlobalLine` — Protocol 1: 5 states, expected time between
  Ω(n⁴) and O(n⁵).  Lines merge end-to-end and the merged leader performs a
  random walk to an endpoint.
* :class:`FastGlobalLine` — Protocol 2: 9 states, O(n³).  Mergings are
  avoided entirely: the winner of a leader encounter *steals one node* from
  the loser's line, which falls asleep and shrinks.
* :class:`FasterGlobalLine` — Protocol 10 (Section 7): 6 states, a
  conjectured improvement where the losing line actively self-destructs,
  releasing nodes for the winner to collect.  The paper reports it is
  "supported by experimental evidence"; benchmark ``P10`` reproduces that
  comparison.
* :class:`LeaderDrivenLine` — the Θ(n² log n) baseline of Section 7 that
  assumes a pre-elected unique leader.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_spanning_line
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "simple-global-line",
    description="Protocol 1: 5-state spanning line, Omega(n^4)/O(n^5)",
    target="spanning-line",
)
class SimpleGlobalLine(TableProtocol):
    """Protocol 1 — *Simple-Global-Line*.

    States: ``q0`` (free), ``q1`` (line endpoint), ``q2`` (line internal),
    ``l`` (leader at an endpoint), ``w`` (leader walking inside a line).

    Every reachable configuration is a collection of lines — each holding a
    unique leader — plus isolated ``q0`` nodes (Figure 2).  Lines grow over
    free nodes and merge end-to-end; a merge leaves the ``w`` leader
    internal, and it random-walks until it reaches an endpoint.
    """

    leader_states = frozenset({"l", "w"})

    def __init__(self) -> None:
        super().__init__(
            name="Simple-Global-Line",
            initial_state="q0",
            rules={
                ("q0", "q0", 0): ("q1", "l", 1),
                ("l", "q0", 0): ("q2", "l", 1),
                ("l", "l", 0): ("q2", "w", 1),
                ("w", "q2", 1): ("q2", "w", 1),
                ("w", "q1", 1): ("q2", "l", 1),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        """Stable iff no free node remains and a single leader exists: the
        only edge-modifying rules need a ``q0`` or two leaders, and neither
        can reappear.  (The ``w`` leader may keep walking forever — the
        *output graph* is nevertheless fixed.)"""
        if config.count_in_state("q0"):
            return False
        return config.count_in_state("l") + config.count_in_state("w") == 1

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_line(config.output_graph())


@register_protocol(
    "fast-global-line",
    description="Protocol 2: 9-state spanning line, O(n^3)",
    target="spanning-line",
)
class FastGlobalLine(TableProtocol):
    """Protocol 2 — *Fast-Global-Line* (9 states, O(n³)).

    Awake lines (leader ``l``/``l'``/``l''``) grow; when two awake leaders
    meet, the winner steals one node from the loser, whose line falls
    asleep (leader ``f1``, or ``f0`` for an isolated sleeper).  Sleeping
    lines only shrink, one node at a time, into the unique surviving awake
    line.
    """

    leader_states = frozenset({"l", "lp", "lpp"})

    def __init__(self) -> None:
        super().__init__(
            name="Fast-Global-Line",
            initial_state="q0",
            rules={
                ("q0", "q0", 0): ("q1", "l", 1),
                ("l", "q0", 0): ("q2", "l", 1),
                ("l", "l", 0): ("q2p", "lp", 1),
                ("lp", "q2", 1): ("lpp", "f1", 0),
                ("lp", "q1", 1): ("lpp", "f0", 0),
                ("lpp", "q2p", 1): ("l", "q2", 1),
                ("l", "f0", 0): ("q2", "l", 1),
                ("l", "f1", 0): ("q2p", "lp", 1),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        """The final configuration is quiescent (detected by the engine);
        this cheap certificate triggers slightly earlier: one awake ``l``
        leader, no free/sleeping material, no in-flight steal."""
        if any(
            config.count_in_state(s)
            for s in ("q0", "f0", "f1", "lp", "lpp", "q2p")
        ):
            return False
        return config.count_in_state("l") == 1 and config.n >= 2

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_line(config.output_graph())


@register_protocol(
    "faster-global-line",
    description="Protocol 10: 6-state spanning line, conjectured o(n^4)",
    target="spanning-line",
)
class FasterGlobalLine(TableProtocol):
    """Protocol 10 — *Faster-Global-Line* (6 states, Section 7).

    Like Fast-Global-Line, but the defeated leader becomes a follower ``f``
    that walks its *own* line deactivating it, releasing its nodes (state
    ``q``) for awake leaders to collect.  The paper conjectures (with
    experimental support) that this parallel self-destruction speeds up the
    construction; benchmark ``P10`` measures it.
    """

    leader_states = frozenset({"l"})

    def __init__(self) -> None:
        super().__init__(
            name="Faster-Global-Line",
            initial_state="q0",
            rules={
                ("q0", "q0", 0): ("q1", "l", 1),
                ("l", "q0", 0): ("q2", "l", 1),
                ("l", "q", 0): ("q2", "l", 1),
                ("l", "l", 0): ("l", "f", 0),
                ("f", "q2", 1): ("q", "f", 0),
                ("f", "q1", 1): ("q", "q", 0),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        if any(config.count_in_state(s) for s in ("q0", "q", "f")):
            return False
        return config.count_in_state("l") == 1 and config.n >= 2

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_line(config.output_graph())


@register_protocol(
    "leader-driven-line",
    description="Pre-elected-leader line baseline, Theta(n^2 log n)",
    target="spanning-line",
)
class LeaderDrivenLine(TableProtocol):
    """The Section 7 baseline: a pre-elected leader ``l`` absorbs free
    nodes one by one — ``(l, q0, 0) -> (q1, l, 1)`` — producing a stable
    spanning line in Θ(n² log n) expected steps (a *meet everybody*
    process).  Note the non-uniform initial configuration: this protocol
    documents the cost of the missing leader-election composition discussed
    in the conclusions."""

    leader_states = frozenset({"l"})

    def __init__(self) -> None:
        super().__init__(
            name="Leader-Driven-Line",
            initial_state="q0",
            rules={
                ("l", "q0", 0): ("q1", "l", 1),
            },
        )

    def initial_configuration(self, n: int) -> Configuration:
        config = Configuration.uniform(n, "q0")
        config.set_state(0, "l")
        return config

    def stabilized(self, config: Configuration) -> bool:
        return config.count_in_state("q0") == 0

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_line(config.output_graph())
