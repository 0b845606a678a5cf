"""Reusable TM programs for the generic constructors.

The star piece is :func:`count_population_machine` — Theorem 16's first
phase: a machine that, walking a line of agents left to right, counts the
free cells *in binary* into the rightmost cells of the line.  This is the
unary-to-binary conversion that lets a spanning line shrink itself into a
logarithmic-size memory holding (a very good estimate of) n.

Tape convention: cell 0 holds the left-end marker ``^`` and the last cell
the right-end marker ``$`` (the endpoint agents know they are endpoints,
so these markers are available for free on a self-assembled line).  Free
cells are blank ``_``; consumed cells become ``x``; the binary counter
grows leftward from ``$`` with its least-significant bit rightmost.
"""

from __future__ import annotations

from repro.core.errors import MachineError
from repro.tm.machine import BLANK, LEFT, RIGHT, STAY, TuringMachine

LEFT_END = "^"
RIGHT_END = "$"
CONSUMED = "x"


def count_population_machine() -> TuringMachine:
    """Count the blank cells of ``^ _ ... _ $`` in binary.

    Repeatedly: consume the leftmost blank (mark ``x``), walk right to
    ``$``, increment the counter (carry walks left; a carry past the MSB
    claims one more blank cell as a new digit), rewind to ``^``.  Accepts
    when the left-to-right scan meets a digit (or ``$``) before any blank:
    every free cell has been counted.

    The counter value then equals the number of ``x`` cells, i.e.
    n minus the counter length minus the two endpoint markers — the
    paper's "very good estimate" of n (Theorem 16) — or one more, when
    a carry crossed a power of two just as the free cells ran out and
    its new MSB took the adjacent consumed cell.  Either way the cells
    satisfy consumed + digits + 2 == n.
    """
    transitions = {
        # seek: from ^ move right over consumed cells to the next blank.
        ("start", LEFT_END): ("seek", LEFT_END, RIGHT),
        ("seek", CONSUMED): ("seek", CONSUMED, RIGHT),
        ("seek", BLANK): ("inc", CONSUMED, RIGHT),
        ("seek", "0"): ("accept", "0", STAY),
        ("seek", "1"): ("accept", "1", STAY),
        ("seek", RIGHT_END): ("accept", RIGHT_END, STAY),
        # inc: walk right to the wall.
        ("inc", BLANK): ("inc", BLANK, RIGHT),
        ("inc", "0"): ("inc", "0", RIGHT),
        ("inc", "1"): ("inc", "1", RIGHT),
        ("inc", RIGHT_END): ("carry", RIGHT_END, LEFT),
        # carry: propagate leftward from the LSB.
        ("carry", "1"): ("carry", "0", LEFT),
        ("carry", "0"): ("rewind", "1", LEFT),
        ("carry", BLANK): ("rewind", "1", LEFT),  # counter grows a digit
        # No blank left for the new MSB: steal the adjacent consumed
        # cell (the count estimate is then off by exactly one — the
        # paper's Theorem 16 only needs a "very good estimate" of n).
        ("carry", CONSUMED): ("rewind", "1", LEFT),
        # rewind: back to the left marker.
        ("rewind", BLANK): ("rewind", BLANK, LEFT),
        ("rewind", "0"): ("rewind", "0", LEFT),
        ("rewind", "1"): ("rewind", "1", LEFT),
        ("rewind", CONSUMED): ("rewind", CONSUMED, LEFT),
        ("rewind", LEFT_END): ("seek", LEFT_END, RIGHT),
    }
    return TuringMachine(
        name="TM-count-population", transitions=transitions, start="start"
    )


def parity_machine() -> TuringMachine:
    """Accept iff the number of free cells of ``^ _ ... _ $`` is even.

    A single rightward scan toggling a one-bit control state per blank —
    the smallest non-trivial line program (3 control states plus the
    halting pair), handy as the default smoke program for the registered
    ``line-tm`` protocol.
    """
    transitions = {
        ("start", LEFT_END): ("even", LEFT_END, RIGHT),
        ("even", BLANK): ("odd", BLANK, RIGHT),
        ("odd", BLANK): ("even", BLANK, RIGHT),
        ("even", RIGHT_END): ("accept", RIGHT_END, STAY),
        ("odd", RIGHT_END): ("reject", RIGHT_END, STAY),
    }
    return TuringMachine(
        name="TM-parity", transitions=transitions, start="start"
    )


def counting_tape(n: int) -> list[str]:
    """The initial tape for a line of ``n`` agents: ``^ _ ... _ $``."""
    if n < 3:
        raise MachineError(f"counting needs a line of >= 3 agents, got {n}")
    return [LEFT_END] + [BLANK] * (n - 2) + [RIGHT_END]


def read_counter(tape: list[str]) -> tuple[int, int]:
    """Extract ``(value, digit_cells)`` from a halted counting tape.

    The counter is the maximal run of 0/1 digits ending at ``$``; its
    value is read MSB-first (leftmost digit first).
    """
    if not tape or tape[-1] != RIGHT_END:
        raise MachineError("tape does not end with the right-end marker")
    digits: list[str] = []
    for symbol in reversed(tape[:-1]):
        if symbol in ("0", "1"):
            digits.append(symbol)
        else:
            break
    if not digits:
        return 0, 0
    bits = "".join(reversed(digits))
    return int(bits, 2), len(digits)
