"""Logarithmic-waste universal construction — Theorem 16.

Pipeline: (1) a spanning line self-counts the population in binary — the
genuine :func:`repro.tm.programs.count_population_machine` running on the
line, optionally at full rule level — and keeps only the ~log2(n) counter
cells as its memory; (2) the released n - log n nodes become the useful
space; (3) the memory line draws a random graph on the useful space and
simulates the O(log n)-space decider of L on it; accept → freeze,
reject → redraw.

DGS(O(log n)) ⊆ PREL(n - log n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import ConvergenceError, SimulationError
from repro.core.graphs import nx
from repro.generic.random_graphs import gnp
from repro.tm.deciders import Decider
from repro.tm.line_machine import run_machine_on_line
from repro.tm.programs import (
    count_population_machine,
    counting_tape,
    read_counter,
)


@dataclass
class LogWasteReport:
    """Outcome of a Theorem 16 construction."""

    graph: nx.Graph
    attempts: int
    memory_cells: int
    useful_space: int
    counted_value: int
    counting_interactions: int

    @property
    def waste(self) -> int:
        return self.memory_cells


class LogWasteConstructor:
    """Construct L with waste ~ log2 n.

    Parameters
    ----------
    decider:
        The target language; Theorem 16 requires it decidable in
        logarithmic space (the declared ``space_order`` is recorded but
        not enforced — Python deciders stand in for heavier machines, see
        DESIGN.md).
    count_on_line:
        True — run the population-counting TM on a genuine line of agents
        (slow); False — run the same machine directly on a tape (fast,
        same transition table).
    """

    def __init__(self, decider: Decider, *, count_on_line: bool = False) -> None:
        self.decider = decider
        self.count_on_line = count_on_line

    def construct(
        self,
        n: int,
        *,
        seed: int | None = None,
        max_attempts: int = 10_000,
    ) -> LogWasteReport:
        if n < 4:
            raise SimulationError(f"need n >= 4, got {n}")
        rng = random.Random(seed)

        # Phase 1: the spanning line counts itself in binary.
        machine = count_population_machine()
        if self.count_on_line:
            tm_result, run, _ = run_machine_on_line(
                machine, counting_tape(n), seed=rng.randrange(2**62)
            )
            tape = tm_result.tape
            counting_interactions = run.steps
        else:
            result = machine.run(counting_tape(n))
            tape = result.tape
            counting_interactions = result.steps
        counted, digits = read_counter(tape)

        # Phase 2: keep the counter cells (plus the right endpoint) as
        # the memory line; release everything else.
        memory_cells = digits + 1
        useful = n - memory_cells
        if useful < 1:
            raise SimulationError(f"population {n} too small to leave useful space")

        # Phase 3: the Figure-3 loop on the useful space.
        for attempt in range(1, max_attempts + 1):
            graph = gnp(useful, 0.5, rng)
            if self.decider.decide(graph):
                return LogWasteReport(
                    graph=graph,
                    attempts=attempt,
                    memory_cells=memory_cells,
                    useful_space=useful,
                    counted_value=counted,
                    counting_interactions=counting_interactions,
                )
        raise ConvergenceError(
            f"language {self.decider.name!r} not hit within {max_attempts} "
            f"draws from G_{{{useful},1/2}}",
            counting_interactions,
        )
