"""Experiment T2 — regenerate Table 2: protocol sizes and expected times
for the direct constructors of Sections 4-5.

Static part: |Q| must match the paper's size column exactly.  Dynamic
part: mean convergence times over size sweeps, with growth-order fits
checked against the paper's upper/lower bound windows.
"""

from __future__ import annotations

import networkx as nx

from benchmarks.conftest import fitted_exponent, print_sweep, sweep
from repro.protocols import (
    CCliques,
    CycleCover,
    FastGlobalLine,
    GlobalRing,
    GlobalStar,
    GraphReplication,
    KRegularConnected,
    SimpleGlobalLine,
    SpanningNetwork,
    TwoRegularConnected,
)


def test_table2_protocol_sizes(benchmark):
    """The '# states' column of Table 2."""
    rows = [
        ("Simple-Global-Line", SimpleGlobalLine().size, 5),
        ("Fast-Global-Line", FastGlobalLine().size, 9),
        ("Cycle-Cover", CycleCover().size, 3),
        ("Global-Star", GlobalStar().size, 2),
        # The journal's Protocol 5 state listing has 10 states (the
        # printed Table 2 still says 9, predating the bugfix's l-bar).
        ("Global-Ring", GlobalRing().size, 10),
        ("2RC", TwoRegularConnected().size, 6),
        ("3RC", KRegularConnected(3).size, 2 * (3 + 1)),
        ("4RC", KRegularConnected(4).size, 2 * (4 + 1)),
        ("3-Cliques", CCliques(3).size, 5 * 3 - 3),
        ("5-Cliques", CCliques(5).size, 5 * 5 - 3),
        ("Graph-Replication", GraphReplication(nx.path_graph(3)).size, 12),
        ("Spanning-Network", SpanningNetwork().size, 2),
    ]
    print("\n=== Table 2 / protocol sizes ===")
    for name, measured, paper in rows:
        print(f"{name:>20}: |Q| = {measured:>2}  (paper: {paper})")
        assert measured == paper, name
    benchmark.pedantic(lambda: [SimpleGlobalLine(), FastGlobalLine()],
                       rounds=3, iterations=1)


def test_table2_simple_global_line_time(benchmark):
    """Simple-Global-Line: Ω(n⁴) and O(n⁵) — exponent in [3.3, 5.3]."""
    means = sweep(SimpleGlobalLine, (8, 12, 16, 22), 12)
    print_sweep("Table 2 / Simple-Global-Line (Ω(n⁴), O(n⁵))", means)
    fit = fitted_exponent(means)
    print(f"fitted: {fit.describe()}")
    assert 3.0 < fit.exponent < 5.5, fit.describe()
    benchmark.pedantic(
        lambda: sweep(SimpleGlobalLine, (12,), 2, seed_policy="legacy"),
        rounds=2, iterations=1,
    )


def test_table2_fast_global_line_time(benchmark):
    """Fast-Global-Line: O(n³) — exponent below ~3.4 and clearly below
    Simple-Global-Line's."""
    means = sweep(FastGlobalLine, (8, 12, 16, 24, 32), 12)
    print_sweep("Table 2 / Fast-Global-Line (O(n³))", means)
    fit = fitted_exponent(means)
    print(f"fitted: {fit.describe()}")
    assert 2.0 < fit.exponent < 3.5, fit.describe()
    benchmark.pedantic(
        lambda: sweep(FastGlobalLine, (16,), 2, seed_policy="legacy"),
        rounds=2, iterations=1,
    )


def test_table2_cycle_cover_time(benchmark):
    """Cycle-Cover: Θ(n²) optimal."""
    means = sweep(CycleCover, (12, 18, 27, 40), 20)
    print_sweep("Table 2 / Cycle-Cover (Θ(n²))", means)
    fit = fitted_exponent(means)
    print(f"fitted: {fit.describe()}")
    assert 1.6 < fit.exponent < 2.4, fit.describe()
    benchmark.pedantic(
        lambda: sweep(CycleCover, (18,), 4, seed_policy="legacy"),
        rounds=3, iterations=1,
    )


def test_table2_global_star_time(benchmark):
    """Global-Star: Θ(n² log n) optimal — exponent ~2 after dividing the
    log factor."""
    means = sweep(GlobalStar, (12, 18, 27, 40), 20)
    print_sweep("Table 2 / Global-Star (Θ(n² log n))", means)
    fit = fitted_exponent(means, log_power=1)
    print(f"fitted: {fit.describe()}")
    assert 1.6 < fit.exponent < 2.4, fit.describe()
    benchmark.pedantic(
        lambda: sweep(GlobalStar, (18,), 4, seed_policy="legacy"),
        rounds=3, iterations=1,
    )


def test_table2_replication_time(benchmark):
    """Graph-Replication: Θ(n⁴ log n) — steep growth, exponent >= ~3.5
    with the log divided out (small-n fits run a bit below the
    asymptotic order)."""

    def replication_spec(n1):
        return f"graph-replication:graph=path-{n1}"

    sizes = (6, 8, 10, 12)  # population = 2 * |V1|
    means = {}
    for n in sizes:
        means[n] = sweep(replication_spec(n // 2), (n,), 8,
                         check_interval=4)[n]
    print_sweep("Table 2 / Graph-Replication (Θ(n⁴ log n))", means)
    fit = fitted_exponent(means, log_power=1)
    print(f"fitted: {fit.describe()}")
    assert fit.exponent > 2.5, fit.describe()
    benchmark.pedantic(
        lambda: sweep(replication_spec(4), (8,), 2, check_interval=4,
                      seed_policy="legacy"),
        rounds=2, iterations=1,
    )


def test_table2_spanning_network_time(benchmark):
    """Spanning-Network (Theorem 1): Θ(n log n), matching the generic
    lower bound."""
    means = sweep(SpanningNetwork, (16, 32, 64, 128), 20)
    print_sweep("Table 2 / Spanning-Network (Θ(n log n))", means)
    fit = fitted_exponent(means, log_power=1)
    print(f"fitted: {fit.describe()}")
    assert 0.6 < fit.exponent < 1.4, fit.describe()
    benchmark.pedantic(
        lambda: sweep(SpanningNetwork, (32,), 5, seed_policy="legacy"),
        rounds=3, iterations=1,
    )


def test_table2_who_wins_fast_vs_simple(benchmark):
    """The headline Table 2 comparison: Fast-Global-Line's O(n³) beats
    Simple-Global-Line's Ω(n⁴) asymptotically.  Fast pays larger
    constants (each steal is a multi-interaction handshake), so Simple
    wins at small n; the measured crossover falls near n ≈ 35, and the
    simple/fast ratio grows roughly linearly beyond it."""
    sizes = (12, 20, 30, 40, 48)
    simple = sweep(SimpleGlobalLine, sizes, 10)
    fast = sweep(FastGlobalLine, sizes, 10)
    print("\n=== Table 2 / Simple vs Fast Global Line ===")
    print(f"{'n':>6} {'simple':>12} {'fast':>12} {'ratio':>8}")
    ratios = []
    for n in sizes:
        ratio = simple[n].mean / fast[n].mean
        ratios.append(ratio)
        print(f"{n:>6} {simple[n].mean:>12.0f} {fast[n].mean:>12.0f} {ratio:>8.2f}")
    assert fast[48].mean < simple[48].mean  # Fast wins past the crossover
    assert ratios[-1] > ratios[0]  # and the gap widens with n
    benchmark.pedantic(
        lambda: sweep(FastGlobalLine, (12,), 2, seed_policy="legacy"),
        rounds=2, iterations=1,
    )
