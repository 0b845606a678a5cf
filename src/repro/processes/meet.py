"""Meet everybody — paper Proposition 5, Θ(n² log n).

A designated node ``a`` must interact with every other node at least once:
``(a, b) -> (a, c)``.  The Θ(n log n) coupon collection is slowed by the
Θ(n) expected wait for the designated node to interact at all.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "meet-everybody",
    description="Section 3.3 process: one node meets all others",
)
class MeetEverybody(TableProtocol):
    """One collector meets n-1 strangers."""

    def __init__(self) -> None:
        super().__init__(
            name="Meet-Everybody",
            initial_state="b",
            rules={("a", "b", 0): ("a", "c", 0)},
        )

    def initial_configuration(self, n: int) -> Configuration:
        config = Configuration.uniform(n, "b")
        config.set_state(0, "a")
        return config

    def stabilized(self, config: Configuration) -> bool:
        return self.target_reached(config)

    def target_reached(self, config: Configuration) -> bool:
        return config.count_in_state("b") == 0
