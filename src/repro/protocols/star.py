"""Spanning-star constructor — paper Protocol 4 and Theorem 7.

The introduction's motivating example: centers (black) eliminate each other
pairwise, centers and peripherals attract, peripherals repel.  Optimal both
in size (2 states, Theorem 6) and in expected time (Θ(n² log n)).
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.graphs import is_spanning_star
from repro.core.protocol import TableProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    "global-star",
    description="Protocol 4: 2-state spanning star, Theta(n^2 log n), optimal",
    target="spanning-star",
)
class GlobalStar(TableProtocol):
    """Protocol 4 — *Global-Star*.

    States ``c`` (center, initial) and ``p`` (peripheral).

    Rules: two centers merge into one (``(c,c,0) -> (c,p,1)``),
    peripherals repel (``(p,p,1) -> (p,p,0)``), center and peripheral
    attract (``(c,p,0) -> (c,p,1)``).
    """

    def __init__(self) -> None:
        super().__init__(
            name="Global-Star",
            initial_state="c",
            rules={
                ("c", "c", 0): ("c", "p", 1),
                ("p", "p", 1): ("p", "p", 0),
                ("c", "p", 0): ("c", "p", 1),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        """The final configuration is quiescent, so the engine's
        quiescence detection suffices; the explicit certificate (single
        center, star-shaped output) is kept cheap for use as a stop
        predicate under arbitrary schedulers."""
        if config.count_in_state("c") != 1:
            return False
        (center,) = config.nodes_in_state("c")
        if config.degree(center) != config.n - 1:
            return False
        return config.n_active_edges == config.n - 1

    def target_reached(self, config: Configuration) -> bool:
        return is_spanning_star(config.output_graph())
