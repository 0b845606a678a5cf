"""Experiment F2 — regenerate Figure 2: a typical mid-execution
configuration of Simple-Global-Line — a collection of leader-carrying
lines (l at an endpoint or w walking inside) and isolated q0 nodes.
"""

from __future__ import annotations

from repro.core.graphs import line_components
from repro.core.simulator import IndexedSimulator
from repro.core.trace import Trace
from repro.protocols import SimpleGlobalLine
from repro.viz import component_summary, render_line

N = 30


def test_figure2_typical_configuration(benchmark):
    protocol = SimpleGlobalLine()
    trace = Trace(snapshot_predicate=lambda step, cfg: True)
    result = IndexedSimulator(seed=23).run(protocol, N, None, trace=trace)
    assert result.converged

    # Pick the mid-execution snapshot with the most simultaneous lines.
    def line_count(cfg):
        return sum(
            1 for path in line_components(cfg.output_graph()) if len(path) > 1
        )

    step, snapshot = max(trace.snapshots, key=lambda sc: line_count(sc[1]))
    print(f"\n=== Figure 2: configuration at step {step} ===")
    print(component_summary(snapshot))

    lines = [p for p in line_components(snapshot.output_graph()) if len(p) > 1]
    isolated = [p for p in line_components(snapshot.output_graph()) if len(p) == 1]
    for path in lines:
        print("  " + render_line(snapshot, path))

    # Figure 2's invariant, on the most fragmented reachable snapshot:
    assert len(lines) >= 2, "expected several coexisting lines"
    for path in lines:
        states = [snapshot.state(u) for u in path]
        leaders = [s for s in states if s in ("l", "w")]
        assert len(leaders) == 1, states
        if "w" in states:
            w_at = states.index("w")
            assert 0 < w_at < len(states) - 1
        else:
            assert states[0] == "l" or states[-1] == "l"
    for path in isolated:
        assert snapshot.state(path[0]) == "q0"

    benchmark.pedantic(
        lambda: IndexedSimulator(seed=3).run(SimpleGlobalLine(), 16, None),
        rounds=2,
        iterations=1,
    )
