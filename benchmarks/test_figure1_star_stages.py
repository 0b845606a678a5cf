"""Experiment F1 — regenerate Figure 1: the three stages of spanning-star
formation.

(a) all particles black (centers), no active connections;
(b) mid-execution: a few surviving blacks, each with red neighbors, and
    some red-red connections still present;
(c) a unique black connected to all reds, no red-red connections — the
    stable spanning star.
"""

from __future__ import annotations

from repro.core.simulator import IndexedSimulator
from repro.core.trace import Trace
from repro.protocols import GlobalStar
from repro.viz import component_summary, render_star, state_summary

N = 24


def run_with_snapshots(seed=11):
    protocol = GlobalStar()
    trace = Trace(snapshot_predicate=lambda step, cfg: True)
    result = IndexedSimulator(seed=seed).run(protocol, N, None, trace=trace)
    assert result.converged
    return protocol, result, trace


def test_figure1_stages(benchmark):
    protocol, result, trace = run_with_snapshots()

    # Stage (a): the initial configuration.
    initial = protocol.initial_configuration(N)
    print("\n=== Figure 1(a): initial ===")
    print(state_summary(initial))
    assert initial.state_counts() == {"c": N}
    assert initial.n_active_edges == 0

    # Stage (b): the first configuration with exactly 3 centers left.
    stage_b = next(
        cfg
        for _, cfg in trace.snapshots
        if cfg.state_counts().get("c", 0) == 3
    )
    print("\n=== Figure 1(b): three surviving blacks ===")
    print(state_summary(stage_b))
    print(component_summary(stage_b))
    # every center has at least ... peripherals exist, and some red-red
    # edges may be present — assert the transitional shape, not purity.
    assert stage_b.state_counts().get("p", 0) == N - 3

    # Stage (c): the stable star.
    final = result.config
    print("\n=== Figure 1(c): stable spanning star ===")
    print(render_star(final))
    counts = final.state_counts()
    assert counts.get("c", 0) == 1
    (center,) = final.nodes_in_state("c")
    assert final.degree(center) == N - 1
    # no red-red connections
    for u, v in final.active_edges():
        assert center in (u, v)

    benchmark.pedantic(
        lambda: IndexedSimulator(seed=1).run(GlobalStar(), N, None),
        rounds=3,
        iterations=1,
    )


def test_figure1_center_count_monotone(benchmark):
    """The black population only shrinks: 24 -> ... -> 1."""
    _, result, trace = run_with_snapshots(seed=5)
    centers = [cfg.state_counts().get("c", 0) for _, cfg in trace.snapshots]
    assert all(a >= b for a, b in zip(centers, centers[1:]))
    assert centers[-1] == 1
    print(f"\ncenter-count trajectory (len {len(centers)}): "
          f"{centers[:10]} ... {centers[-3:]}")
    benchmark.pedantic(
        lambda: IndexedSimulator(seed=2).run(GlobalStar(), 12, None),
        rounds=3,
        iterations=1,
    )
