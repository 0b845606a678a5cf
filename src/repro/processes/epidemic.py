"""One-way epidemic — paper Proposition 1, Θ(n log n).

A single node starts infected (state ``a``); the only effective rule is
``(a, b) -> (a, a)``.  The process completes when all nodes are infected.
Edges are never touched, so effective rules are defined on inactive edges
only (all edges stay inactive throughout).
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "one-way-epidemic",
    description="Section 3.3 process: infection spreads in Theta(n log n)",
)
class OneWayEpidemic(TableProtocol):
    """Infection spreads one node per effective interaction."""

    def __init__(self) -> None:
        super().__init__(
            name="One-Way-Epidemic",
            initial_state="b",
            rules={("a", "b", 0): ("a", "a", 0)},
        )

    def initial_configuration(self, n: int) -> Configuration:
        config = Configuration.uniform(n, "b")
        config.set_state(0, "a")
        return config

    def stabilized(self, config: Configuration) -> bool:
        return self.target_reached(config)

    def target_reached(self, config: Configuration) -> bool:
        return config.count_in_state("a") == config.n
