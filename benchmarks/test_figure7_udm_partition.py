"""Experiment F7/F8 — regenerate Figures 7 and 8: the three-way (U, D, M)
partitioning of Theorem 15, built by its four interaction rules.
"""

from __future__ import annotations

from benchmarks.conftest import fitted_exponent, print_sweep, sweep
from repro.core.simulator import IndexedSimulator, run_to_convergence
from repro.core.trace import Trace
from repro.generic import UDMPartition


def test_figure7_partition_shape(benchmark):
    """Figure 7: qd - qu - qm chains spanning the population."""
    protocol = UDMPartition()
    result = run_to_convergence(protocol, 24, seed=2)
    assert result.converged
    triples = protocol.triples(result.config)
    print(f"\nFigure 7: {len(triples)} (qd, qu, qm) chains on n=24")
    assert len(triples) == 8
    counts = result.config.state_counts()
    assert counts.get("qu", 0) == counts.get("qd", 0) == counts.get("qm", 0) == 8
    benchmark.pedantic(
        lambda: run_to_convergence(UDMPartition(), 24, seed=1),
        rounds=3,
        iterations=1,
    )


def test_figure8_rule_usage(benchmark):
    """Figure 8 walks through the four rules; check all of them fire
    together (including the release rule (qm', qd, 1)) in most typical
    executions.  A single seed may legitimately stabilize before one of
    them fires, so the check takes a majority over seeds 0-7."""
    figure8 = {
        ("q0", "q0", 0),
        ("q0", "qup", 0),
        ("qup", "qup", 0),
        ("qd", "qmp", 1),  # the release step of Fig. 8(iv)
    }
    seeds = range(8)
    all_fired = 0
    for seed in seeds:
        trace = Trace()
        result = IndexedSimulator(seed=seed).run(
            UDMPartition(), 30, None, trace=trace
        )
        assert result.converged
        fired = {
            tuple(sorted(map(str, (e.u_before, e.v_before)))) + (e.edge_before,)
            for e in trace.events
        }
        all_fired += figure8 <= fired
    print(f"\nFigure 8: all four rules fired in {all_fired}/{len(seeds)} runs")
    assert all_fired > len(seeds) // 2
    benchmark.pedantic(
        lambda: run_to_convergence(UDMPartition(), 18, seed=3),
        rounds=3,
        iterations=1,
    )


def test_figure7_convergence_scaling(benchmark):
    # 30 trials: the 4-point fitted exponent wobbles outside the band at
    # 15 trials on some seed streams.
    means = sweep(UDMPartition, (12, 18, 27, 39), 30, measure="last_change")
    print_sweep("Figure 7 / (U,D,M) partitioning time", means)
    fit = fitted_exponent(means)
    print(f"fitted: {fit.describe()}")
    assert 1.4 < fit.exponent < 2.6, fit.describe()
    benchmark.pedantic(
        lambda: run_to_convergence(UDMPartition(), 18, seed=5),
        rounds=3,
        iterations=1,
    )
