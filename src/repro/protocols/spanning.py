"""Spanning-network constructor — paper Theorem 1.

The node-cover variant that activates the connecting edge on every
node-state-effective transition: it stabilizes to *some* spanning network
(every node covered by at least one active edge) in Θ(n log n) expected
steps, matching the generic Ω(n log n) lower bound for spanning
constructions — i.e. it is time-optimal.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_spanning_network
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "spanning-network",
    description="Theorem 1: 2-state spanning network, Theta(n log n), optimal",
    target="spanning-network",
)
class SpanningNetwork(TableProtocol):
    """Theorem 1's matching upper bound: ``(a,a,0) -> (b,b,1)`` and
    ``(a,b,0) -> (b,b,1)``.  Every node is converted from ``a`` to ``b``
    exactly once, and each conversion activates the corresponding edge,
    so when no ``a`` remains every node has an active incident edge."""

    def __init__(self) -> None:
        super().__init__(
            name="Spanning-Network",
            initial_state="a",
            rules={
                ("a", "a", 0): ("b", "b", 1),
                ("a", "b", 0): ("b", "b", 1),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        return config.count_in_state("a") == 0

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_network(config.output_graph())
