"""Experiment F5 — regenerate Figure 5: the TM head moving on a line of
agents via the t/l/r direction marks.

Series reported: interaction steps per simulated TM step as a function of
the line length (each head move waits for the specific head-neighbor
interaction: Θ(n²) of the n(n-1)/2 scheduler picks).
"""

from __future__ import annotations

from repro.analysis import fit_power_law
from repro.tm import run_machine_on_line, zigzag_nonempty_machine
from repro.tm.machine import BLANK


def tape_with_one_late_bit(length):
    bits = ["0"] * (length - 2) + ["1"]
    return bits + [BLANK]


def test_figure5_cost_per_tm_step(benchmark):
    machine = zigzag_nonempty_machine()
    sizes = (6, 10, 16, 24)
    rows = []
    print("\n=== Figure 5 / head movement cost on the agent line ===")
    print(f"{'cells':>6} {'TM steps':>9} {'interactions':>13} {'per-step':>10}")
    for n in sizes:
        tape = tape_with_one_late_bit(n)
        direct = machine.run(list(tape))
        tm_steps = direct.steps
        result, run, _ = run_machine_on_line(machine, tape, seed=n)
        assert result.accepted == direct.accepted
        per_step = run.steps / tm_steps
        rows.append((n, tm_steps, run.steps, per_step))
        print(f"{n:>6} {tm_steps:>9} {run.steps:>13} {per_step:>10.1f}")

    # Per-TM-step cost grows ~ n² (the head must hit one specific pair).
    fit = fit_power_law([r[0] for r in rows], [r[3] for r in rows])
    print(f"per-step cost fit: {fit.describe()}")
    assert 1.4 < fit.exponent < 2.6, fit.describe()

    benchmark.pedantic(
        lambda: run_machine_on_line(machine, tape_with_one_late_bit(10), seed=0),
        rounds=3,
        iterations=1,
    )


def test_figure5_mark_discipline(benchmark):
    """After the sweep, the marks always split l / head / r as drawn in
    Figure 5's fourth snapshot."""
    from repro.core.simulator import IndexedSimulator
    from repro.core.trace import Trace
    from repro.tm import LineMachineProtocol
    from repro.tm.line_machine import MARK_L, MARK_R, head_of

    machine = zigzag_nonempty_machine()
    tape = tape_with_one_late_bit(12)
    protocol = LineMachineProtocol(machine, tape, head_at=len(tape) - 1)
    snaps = Trace(snapshot_predicate=lambda step, cfg: True)
    result = IndexedSimulator(seed=7).run(protocol, len(tape), None, trace=snaps)
    assert result.converged
    checked = 0
    for _, config in snaps.snapshots:
        heads = [u for u in range(config.n) if head_of(config.state(u))]
        if len(heads) != 1:
            continue
        head = heads[0]
        if head_of(config.state(head))[0] not in ("tm", "halt"):
            continue
        for u in range(config.n):
            if u == head:
                continue
            expected = MARK_L if u < head else MARK_R
            assert config.state(u)[1] == expected
        checked += 1
    print(f"\nFigure 5 mark discipline verified on {checked} snapshots")
    assert checked > 0
    benchmark.pedantic(
        lambda: run_machine_on_line(machine, tape_with_one_late_bit(8), seed=1),
        rounds=3,
        iterations=1,
    )
