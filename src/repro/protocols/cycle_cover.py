"""Cycle-cover constructor — paper Protocol 3 and Theorem 5.

Each node tracks its own active degree (0, 1 or 2) in its state and any
two nodes of degree < 2 connect when they meet.  Stabilizes to a
node-disjoint collection of cycles spanning all but at most 2 nodes
(the waste), in optimal Θ(n²) expected time.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_cycle_cover
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "cycle-cover",
    description="Protocol 3: 3-state cycle cover, Theta(n^2), time-optimal",
    target="cycle-cover",
)
class CycleCover(TableProtocol):
    """Protocol 3 — *Cycle-Cover* (3 states, Θ(n²), time-optimal).

    Invariant: a node in state ``qi`` has active degree exactly ``i``.
    """

    def __init__(self) -> None:
        super().__init__(
            name="Cycle-Cover",
            initial_state="q0",
            rules={
                ("q0", "q0", 0): ("q1", "q1", 1),
                ("q1", "q0", 0): ("q2", "q1", 1),
                ("q1", "q1", 0): ("q2", "q2", 1),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        """Quiescence certificate: no two under-full nodes can still meet
        over an inactive edge.  Cheap count-based version: at most one
        node of degree < 2, or exactly two that are already adjacent."""
        q1 = config.count_in_state("q1")
        low = config.count_in_state("q0") + q1
        if low == 0 or low == 1:
            return True
        if low == 2 and q1 == 2:
            u, v = config.nodes_in_state("q1")
            return config.edge_state(u, v) == 1
        return False

    def target_reached(self, config: Configuration) -> bool:
        return is_cycle_cover(config.output_graph(), waste=2)
