"""Registry wrappers for the Theorem-14 line machines.

The machines of :mod:`repro.tm` used to be *driver-run only*: the
Figure 5 pipeline was reachable through :func:`run_machine_on_line` but
invisible to the protocol registry, the experiment Runner, scenarios and
the CLI.  This module closes that registry-coverage gap (tracked in
``ROADMAP.md``) with two parameterized entries following the
``graph-replication`` wrapper-factory pattern:

``line-tm:program=parity``
    A named *line program* — a TM plus a population-size-indexed tape —
    executed entirely via pairwise interactions on a line of ``n``
    agents (:class:`LineTM`).  Programs live in :data:`LINE_PROGRAMS`.

``tm-decider:machine=has-edge,graph=ring-4``
    A raw-TM graph-language decider from
    :func:`repro.tm.deciders.registry` run on a line of agents over the
    (blank-padded) adjacency encoding of a named input graph — the full
    Figure 5 + Section 6 decision pipeline as one spec string.

Both resolve from plain spec strings, so they sweep, serialize and
scenario-compose like every other registered protocol::

    from repro.protocols.registry import instantiate

    protocol = instantiate("line-tm:program=parity")
    protocol = instantiate("tm-decider:machine=even-edges,graph=clique-4")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.configuration import Configuration
from repro.core.errors import MachineError
from repro.core.graphs import graph_spec, named_graph
from repro.protocols.registry import Param, RegistryError, register_protocol
from repro.tm.deciders import TMDecider, registry as decider_registry
from repro.tm.line_machine import LineMachineProtocol
from repro.tm.machine import BLANK, TuringMachine
from repro.tm.programs import (
    count_population_machine,
    counting_tape,
    parity_machine,
)

__all__ = [
    "LINE_PROGRAMS",
    "LineProgram",
    "LineTM",
    "TMDeciderOnLine",
    "line_program",
    "tm_decider",
    "tm_decider_machine",
]


@dataclass(frozen=True)
class LineProgram:
    """A named TM program runnable on a line of ``n`` agents.

    ``tape(n)`` builds the initial tape for a population of ``n`` (one
    symbol per agent) and raises :class:`MachineError` below ``min_n``;
    ``expected(n)`` is the verdict the machine must reach — the
    conformance suite and :meth:`LineTM.target_reached` assert it.
    """

    name: str
    machine_factory: Callable[[], TuringMachine]
    tape: Callable[[int], list[str]]
    min_n: int
    description: str
    expected: Callable[[int], bool] | None = None


def _zigzag_tape(n: int) -> list[str]:
    """``0 ... 0 1 _``: the planted ``1`` forces the zig-zag machine's
    full out-and-back scan (leftward head moves over l/r marks)."""
    if n < 3:
        raise MachineError(f"the zigzag program needs n >= 3 agents, got {n}")
    return ["0"] * (n - 2) + ["1", BLANK]


def _zigzag_machine() -> TuringMachine:
    # Local import: deciders hosts the machine, programs the tape shape.
    from repro.tm.deciders import zigzag_nonempty_machine

    return zigzag_nonempty_machine()


#: Named line programs for the registered ``line-tm`` protocol.
LINE_PROGRAMS: dict[str, LineProgram] = {
    "parity": LineProgram(
        name="parity",
        machine_factory=parity_machine,
        tape=counting_tape,
        min_n=3,
        description="accept iff the number of free cells (n - 2) is even",
        expected=lambda n: (n - 2) % 2 == 0,
    ),
    "count": LineProgram(
        name="count",
        machine_factory=count_population_machine,
        tape=counting_tape,
        min_n=3,
        description="Theorem 16: count the free cells in binary (accepts)",
        expected=lambda n: True,
    ),
    "zigzag": LineProgram(
        name="zigzag",
        machine_factory=_zigzag_machine,
        tape=_zigzag_tape,
        min_n=3,
        description="two-pass out-and-back scan exercising leftward moves",
        expected=lambda n: True,
    ),
}


def line_program(name: str) -> LineProgram:
    """Look up a named line program with a registry-correct error."""
    try:
        return LINE_PROGRAMS[name]
    except KeyError:
        raise RegistryError(
            f"unknown line program {name!r}; "
            f"choose from {', '.join(sorted(LINE_PROGRAMS))}"
        ) from None


def tm_decider_machine(name: str) -> TMDecider:
    """Look up a *raw-TM* decider (transition-table machines only — the
    Python deciders have no machine to put on a line)."""
    deciders = decider_registry()
    entry = deciders.get(name)
    if isinstance(entry, TMDecider):
        return entry
    choices = sorted(
        key for key, value in deciders.items() if isinstance(value, TMDecider)
    )
    raise RegistryError(
        f"unknown raw-TM decider {name!r}; choose from {', '.join(choices)}"
    )


@register_protocol(
    "line-tm",
    params=(
        Param(
            "program", str, default="parity",
            help="named line program: " + ", ".join(sorted(LINE_PROGRAMS)),
        ),
    ),
    aliases=("line-machine",),
    shorthand=r"(?P<program>[a-z0-9]+)-line-tm",
    description="Figure 5: a named TM program on a line of n agents",
)
class LineTM(LineMachineProtocol):
    """A named line program sized to the population at run time.

    :class:`~repro.tm.line_machine.LineMachineProtocol` fixes its tape at
    construction; this registered wrapper defers the tape to
    :meth:`initial_configuration`, so one spec string sweeps across
    population sizes.  The head starts on the rightmost agent (endpoint
    start pins node 0 as the logical left end, so asymmetric tapes are
    read in order); ``target_reached`` additionally checks the program's
    expected verdict for the population size.
    """

    def __init__(self, program: str = "parity") -> None:
        entry = line_program(program)
        self.program = program
        self._program_entry = entry
        super().__init__(
            entry.machine_factory(),
            entry.tape(entry.min_n),
            head_at=entry.min_n - 1,
        )
        self.name = f"Line-TM[{program}]"

    def initial_configuration(self, n: int) -> Configuration:
        # entry.tape raises MachineError below the program minimum.
        return self._line(self._program_entry.tape(n), n - 1)

    def target_reached(self, config: Configuration) -> bool:
        verdict = self.verdict(config)
        if verdict is None:
            return False
        if self._program_entry.expected is None:
            return True
        want = "accept" if self._program_entry.expected(config.n) else "reject"
        return verdict == want


class TMDeciderOnLine(LineMachineProtocol):
    """A raw-TM graph decider executed on a line of agents.

    The tape is the upper-triangle adjacency encoding of the input graph
    plus its blank sentinel, padded with further blanks up to the
    population size (the deciders halt at the first blank, so padding is
    invisible to them).  ``target_reached`` checks the agents' verdict
    against the decider's direct answer — the line simulation must agree
    with the raw machine.
    """

    def __init__(self, decider: TMDecider, graph_name: str) -> None:
        self.decider_name = decider.name
        self.graph = graph_spec(graph_name)
        input_graph = named_graph(self.graph)
        self._base_tape = decider.tape_for(input_graph)
        self._expected = decider.decide(input_graph)
        self.min_n = len(self._base_tape)
        super().__init__(
            decider.machine, self._base_tape, head_at=self.min_n - 1
        )
        self.name = f"TM-Decider[{decider.name} on {self.graph}]"

    def initial_configuration(self, n: int) -> Configuration:
        if n < self.min_n:
            raise MachineError(
                f"deciding {self.graph!r} needs a line of >= {self.min_n} "
                f"agents (encoding plus sentinel), got {n}"
            )
        return self._line(
            self._base_tape + [BLANK] * (n - len(self._base_tape)), n - 1
        )

    def target_reached(self, config: Configuration) -> bool:
        want = "accept" if self._expected else "reject"
        return self.verdict(config) == want


_TM_DECIDER_NAMES = ", ".join(
    sorted(
        key
        for key, value in decider_registry().items()
        if isinstance(value, TMDecider)
    )
)


@register_protocol(
    "tm-decider",
    params=(
        Param(
            "machine", str, default="has-edge",
            help="raw-TM graph decider: " + _TM_DECIDER_NAMES,
        ),
        Param(
            "graph", graph_spec, default="ring-4",
            help="named input graph whose encoding is the tape "
            "(e.g. ring-4, clique-4, path-5)",
        ),
    ),
    aliases=("decider-on-line",),
    description="Figures 5+6: a raw-TM graph decider on a line of agents",
)
def tm_decider(
    machine: str = "has-edge", graph: str = "ring-4"
) -> TMDeciderOnLine:
    """Registry factory for :class:`TMDeciderOnLine` (the
    ``graph-replication`` wrapper-factory pattern): both parameters are
    plain spec strings, validated with registry-correct errors, so the
    full decide-on-a-line pipeline resolves from one spec —
    ``"tm-decider:machine=even-edges,graph=clique-4"`` — and sweeps like
    any other protocol.  The population must be at least the encoding
    length ``k(k-1)/2 + 1`` of the input graph."""
    return TMDeciderOnLine(tm_decider_machine(machine), graph)
