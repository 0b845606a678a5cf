"""Maximum matching — paper Proposition 3, Θ(n²).

The one-to-one elimination variant that records the pairing in the edges:
``(a, a, 0) -> (b, b, 1)``.  Stabilizes to a matching of cardinality
``floor(n/2)`` (perfect when n is even).
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_perfect_matching
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "maximum-matching",
    description="Section 3.3 process: greedy maximum matching",
)
class MaximumMatchingProcess(TableProtocol):
    """Pairs of untouched nodes match and leave the pool."""

    def __init__(self) -> None:
        super().__init__(
            name="Maximum-Matching",
            initial_state="a",
            rules={("a", "a", 0): ("b", "b", 1)},
        )

    def stabilized(self, config: Configuration) -> bool:
        return config.count_in_state("a") <= 1

    def target_reached(self, config: Configuration) -> bool:
        return is_perfect_matching(config.output_graph())
