"""Turing machines on a line of agents — the Theorem 14 mechanics.

This module implements, as a genuine network-constructor protocol (all
computation happens in pairwise interactions over active line edges), the
paper's simulation of a TM head on a spanning line (Figure 5):

1. *Wander*: the head starts on an arbitrary node with no sense of
   direction; it moves to any neighbor not marked ``t``, leaving ``t`` on
   the node it departs.  The ``t`` trail commits it to one direction, so
   it reaches an endpoint.
2. *Sweep*: the first endpoint reached is designated RIGHT; the head
   sweeps to the other endpoint leaving ``r`` marks on the way.
3. *Run*: from the left endpoint the head executes the machine.  To move
   right it steps onto its ``r``-marked neighbor and leaves ``l`` behind;
   to move left, onto the ``l``-marked neighbor leaving ``r``.  At any
   point every node left of the head is marked ``l`` and every node right
   of it ``r``, exactly as in Figure 5.

Node states are structured tuples ``(kind, mark, symbol, head)`` — each
component ranges over a finite set, so for a fixed machine the protocol is
a finite-state NET.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.configuration import Configuration
from repro.core.errors import MachineError, SimulationError
from repro.core.graphs import line_components
from repro.core.protocol import Distribution, Protocol, State, deterministic
from repro.tm.machine import RIGHT, STAY, TMResult, TuringMachine

#: kind component
END = "end"
MID = "mid"

#: mark component
UNMARKED = "-"
TRAIL = "t"
MARK_L = "l"
MARK_R = "r"

#: head phases
WANDER = ("wander",)
SWEEP = ("sweep",)


def cell(kind: str, mark: str, symbol: str, head=None) -> tuple:
    """Build a cell state tuple."""
    return (kind, mark, symbol, head)


def head_of(state: tuple):
    return state[3]


class LineMachineProtocol(Protocol):
    """Execute ``machine`` on a pre-assembled line of agents.

    Parameters
    ----------
    machine:
        The TM to execute.
    tape:
        Input symbols, one per agent; the population size is
        ``len(tape)``.  The *logical* cell order is fixed only when the
        head finishes its sweep — the input must therefore be
        left-right symmetric OR the caller accepts either orientation.
        For asymmetric inputs use ``orient="left"`` (below).
    head_at:
        Index of the agent initially holding the head.  Faithful to the
        paper, the wander phase designates the first endpoint reached as
        the RIGHT end — so with an interior start the logical tape may be
        ``tape`` reversed.  Starting the head on an endpoint (as
        :func:`run_machine_on_line` does) skips wandering and pins the
        orientation, which matters for asymmetric inputs.

    The practical entry point is :func:`run_machine_on_line`.
    """

    name = "Line-Machine"
    output_states = None

    def __init__(
        self,
        machine: TuringMachine,
        tape: Iterable[str],
        head_at: int = 0,
    ) -> None:
        self.machine = machine
        self.tape = list(tape)
        if len(self.tape) < 2:
            raise SimulationError("a line machine needs at least 2 cells")
        if not 0 <= head_at < len(self.tape):
            raise SimulationError(f"head_at {head_at} out of range")
        self.head_at = head_at
        self.name = f"Line-Machine[{machine.name}]"

    # ------------------------------------------------------------------
    def initial_configuration(self, n: int) -> Configuration:
        if n != len(self.tape):
            raise SimulationError(
                f"population size {n} != tape length {len(self.tape)}"
            )
        return self._line(self.tape, self.head_at)

    @staticmethod
    def _line(tape: list[str], head_at: int) -> Configuration:
        """The line of ``len(tape)`` agents holding ``tape``, the head on
        agent ``head_at``.  Subclasses that size the tape per run pass
        it here instead of storing it, so one instance can serve runs
        of different sizes at once."""
        n = len(tape)
        states = []
        for i, symbol in enumerate(tape):
            kind = END if i in (0, n - 1) else MID
            head = None
            if i == head_at:
                # Starting on an endpoint skips the wander phase: that
                # endpoint is immediately the designated RIGHT end.
                head = SWEEP if kind == END else WANDER
            states.append(cell(kind, UNMARKED, symbol, head))
        config = Configuration(states)
        for i in range(n - 1):
            config.set_edge(i, i + 1, 1)
        return config

    # ------------------------------------------------------------------
    # The pairwise-interaction rules
    # ------------------------------------------------------------------
    def delta(self, a: State, b: State, c: int) -> Distribution | None:
        if c != 1:
            return None
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            return None
        if head_of(a) is None:
            return None  # resolve() retries with the head first
        out = self._head_rule(a, b)
        if out is None:
            return None
        new_a, new_b = out
        return deterministic(new_a, new_b, 1)

    def _head_rule(self, a: tuple, b: tuple) -> tuple | None:
        """Rules with the head on the first node; returns (a', b')."""
        kind_a, mark_a, sym_a, head = a
        kind_b, mark_b, sym_b, head_b = b
        if head_b is not None:
            return None  # single head; never happens
        phase = head[0]
        if phase == "wander":
            if mark_b == TRAIL:
                return None  # don't re-enter the trail
            new_b_head = SWEEP if kind_b == END else WANDER
            return (
                cell(kind_a, TRAIL, sym_a, None),
                cell(kind_b, mark_b, sym_b, new_b_head),
            )
        if phase == "sweep":
            if mark_b == MARK_R:
                return None  # already swept over that side
            new_a = cell(kind_a, MARK_R, sym_a, None)
            if kind_b == END:
                # Sweep complete: b is the LEFT endpoint; start the TM.
                return (new_a, cell(kind_b, mark_b, sym_b, ("tm", self.machine.start)))
            return (new_a, cell(kind_b, mark_b, sym_b, SWEEP))
        if phase == "tm":
            return self._tm_rule(a, b)
        return None  # halted heads are inert

    def _tm_rule(self, a: tuple, b: tuple) -> tuple | None:
        kind_a, mark_a, sym_a, head = a
        kind_b, mark_b, sym_b, _ = b
        control = head[1]
        machine = self.machine
        step = machine.transitions.get((control, sym_a))
        if step is None:
            raise MachineError(
                f"{machine.name}: no transition from {control!r} "
                f"reading {sym_a!r} (line simulation)"
            )
        if machine.is_halting(step.state):
            verdict = "accept" if step.state == machine.accept else "reject"
            return (
                cell(kind_a, mark_a, step.write, ("halt", verdict)),
                b,
            )
        if step.move == STAY:
            if (control, sym_a) == (step.state, step.write):
                return None  # ineffective self-loop
            return (
                cell(kind_a, mark_a, step.write, ("tm", step.state)),
                b,
            )
        if step.move == RIGHT:
            if mark_b != MARK_R:
                return None  # wrong neighbor for a right move
            return (
                cell(kind_a, MARK_L, step.write, None),
                cell(kind_b, mark_b, sym_b, ("tm", step.state)),
            )
        # step.move == LEFT
        if mark_b != MARK_L:
            return None
        return (
            cell(kind_a, MARK_R, step.write, None),
            cell(kind_b, mark_b, sym_b, ("tm", step.state)),
        )

    # ------------------------------------------------------------------
    def stabilized(self, config: Configuration) -> bool:
        return self.verdict(config) is not None

    def verdict(self, config: Configuration) -> str | None:
        """'accept' / 'reject' once the simulated machine halted."""
        for u in range(config.n):
            state = config.state(u)
            if not isinstance(state, tuple):
                continue  # the DEAD sentinel under crash faults
            head = head_of(state)
            if head is not None and head[0] == "halt":
                return head[1]
        return None

    def read_result(self, config: Configuration) -> TMResult:
        """Extract the halted machine's tape (in left-to-right order) and
        verdict from a stabilized configuration."""
        verdict = self.verdict(config)
        if verdict is None:
            raise MachineError("machine has not halted")
        (order,) = line_components(config.output_graph())
        head_node = next(
            u for u in order if head_of(config.state(u)) is not None
        )
        # Left side of the head is l-marked; orient the order accordingly.
        position = order.index(head_node)
        left_side = order[:position]
        if any(config.state(u)[1] == MARK_R for u in left_side):
            order = list(reversed(order))
            position = len(order) - 1 - position
        tape = [config.state(u)[2] for u in order]
        return TMResult(
            accepted=verdict == "accept",
            halted=True,
            steps=-1,  # interaction steps, not TM steps; see RunResult
            cells_used=len(tape),
            tape=tape,
            state=self.machine.accept if verdict == "accept" else self.machine.reject,
        )


def run_machine_on_line(
    machine: TuringMachine,
    tape: list[str],
    *,
    head_at: int | None = None,
    seed: int | None = None,
    max_steps: int | None = None,
):
    """Run ``machine`` on ``tape`` entirely via agent interactions.

    The head starts at the rightmost agent by default: an endpoint start
    pins node 0 as the left end, so asymmetric inputs are read in ``tape``
    order.  Pass an interior ``head_at`` to exercise the full wander
    phase (the logical tape may then be reversed).

    Returns ``(tm_result, run_result, protocol)``.
    """
    from repro.core.simulator import IndexedSimulator

    if head_at is None:
        head_at = len(tape) - 1  # endpoint start -> deterministic layout
    protocol = LineMachineProtocol(machine, tape, head_at=head_at)
    sim = IndexedSimulator(seed=seed)
    run = sim.run(
        protocol,
        len(tape),
        max_steps,
        require_convergence=max_steps is not None,
    )
    return protocol.read_result(run.config), run, protocol
