"""Cover processes — paper Propositions 6 and 7.

* Node cover (Θ(n log n)): every node must interact at least once —
  ``(a, a) -> (b, b)`` and ``(a, b) -> (b, b)``.
* Edge cover (Θ(n² log n)): every *pair* must interact at least once —
  ``(a, a, 0) -> (a, a, 1)``; the classical m-coupon collector over the
  m = n(n-1)/2 edges.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "node-cover",
    description="Section 3.3 process: every node gains an active edge",
)
class NodeCover(TableProtocol):
    """Every node flips to ``b`` upon its first interaction."""

    def __init__(self) -> None:
        super().__init__(
            name="Node-Cover",
            initial_state="a",
            rules={
                ("a", "a", 0): ("b", "b", 0),
                ("a", "b", 0): ("b", "b", 0),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        return self.target_reached(config)

    def target_reached(self, config: Configuration) -> bool:
        return config.count_in_state("a") == 0


@register_protocol(
    "edge-cover",
    description="Section 3.3 process: every pair activates its edge",
)
class EdgeCover(TableProtocol):
    """Every edge activates upon its first selection; stabilizes to the
    complete graph after all m pairs have interacted."""

    def __init__(self) -> None:
        super().__init__(
            name="Edge-Cover",
            initial_state="a",
            rules={("a", "a", 0): ("a", "a", 1)},
        )

    def stabilized(self, config: Configuration) -> bool:
        return self.target_reached(config)

    def target_reached(self, config: Configuration) -> bool:
        n = config.n
        return config.n_active_edges == n * (n - 1) // 2
