"""Elimination processes — paper Propositions 2 and 4.

* One-to-one elimination (Θ(n²)): ``(a, a) -> (a, b)``; ``a``s are only
  eliminated against other ``a``s.  The leader-election pattern.
* One-to-all elimination (Θ(n log n)): ``(a, a) -> (b, a)`` and
  ``(a, b) -> (b, b)``; ``a``s are eliminated by everyone.  Perhaps
  surprisingly, this is *not* faster than a one-way epidemic.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "one-to-one-elimination",
    description="Section 3.3 process: pairwise leader elimination",
)
class OneToOneElimination(TableProtocol):
    """All nodes start as ``a``; a single ``a`` survives."""

    def __init__(self) -> None:
        super().__init__(
            name="One-To-One-Elimination",
            initial_state="a",
            rules={("a", "a", 0): ("a", "b", 0)},
        )

    def stabilized(self, config: Configuration) -> bool:
        return self.target_reached(config)

    def target_reached(self, config: Configuration) -> bool:
        return config.count_in_state("a") == 1


@register_protocol(
    "one-to-all-elimination",
    description="Section 3.3 process: one survivor eliminates everyone",
)
class OneToAllElimination(TableProtocol):
    """All nodes start as ``a``; no ``a`` survives."""

    def __init__(self) -> None:
        super().__init__(
            name="One-To-All-Elimination",
            initial_state="a",
            rules={
                ("a", "a", 0): ("b", "a", 0),
                ("a", "b", 0): ("b", "b", 0),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        return self.target_reached(config)

    def target_reached(self, config: Configuration) -> bool:
        return config.count_in_state("a") == 0
