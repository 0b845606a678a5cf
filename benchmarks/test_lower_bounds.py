"""Experiment LB — the paper's lower bounds as executable floors
(Theorems 1, 2, 5, 6, 8): measured mean convergence times must dominate
the analytic expressions derived in the proofs.
"""

from __future__ import annotations

from benchmarks.conftest import sweep
from repro.protocols import (
    CycleCover,
    FastGlobalLine,
    GlobalRing,
    GlobalStar,
    SpanningNetwork,
    TwoRegularConnected,
)
from repro.protocols.bounds import (
    cycle_cover_lower_bound,
    spanning_line_lower_bound,
    spanning_network_lower_bound,
    spanning_ring_lower_bound,
    spanning_star_lower_bound,
)

TRIALS = 15
SLACK = 0.85  # measured means may sit slightly below an exact floor


def check(factory, bound, n, benchmark=None):
    mean = sweep(factory, (n,), TRIALS, seed_policy="legacy")[n].mean
    floor = bound(n)
    print(f"\n{factory().name}: measured mean {mean:.0f} vs floor {floor:.0f} (n={n})")
    assert mean >= SLACK * floor, (mean, floor)
    if benchmark is not None:
        benchmark.pedantic(
            lambda: sweep(factory, (n,), 2, seed_policy="legacy"),
            rounds=2, iterations=1,
        )
    return mean, floor


def test_lb_spanning_network(benchmark):
    """Theorem 1: any spanning construction needs Ω(n log n)."""
    check(SpanningNetwork, spanning_network_lower_bound, 60, benchmark=benchmark)


def test_lb_spanning_line(benchmark):
    """Theorem 2: spanning lines need Ω(n²); checked against the fastest
    line protocol."""
    check(FastGlobalLine, spanning_line_lower_bound, 24, benchmark=benchmark)


def test_lb_spanning_ring(benchmark):
    """Theorem 8: spanning rings need Ω(n²) — both ring protocols."""
    check(GlobalRing, spanning_ring_lower_bound, 12, benchmark=benchmark)
    check(TwoRegularConnected, spanning_ring_lower_bound, 12)


def test_lb_cycle_cover(benchmark):
    """Theorem 5: the cycle-cover floor n(n-1)/12 — the protocol is
    time-optimal, so the measured mean sits within a small constant of
    the Θ(n²) floor."""
    mean, floor = check(CycleCover, cycle_cover_lower_bound, 40, benchmark=benchmark)
    assert mean < 24 * floor  # optimality: same Θ(n²) order


def test_lb_spanning_star(benchmark):
    """Theorem 6: the center's meet-everybody floor Θ(n² log n); the
    protocol is optimal so the measured mean also stays within a small
    constant of it."""
    mean, floor = check(GlobalStar, spanning_star_lower_bound, 30, benchmark=benchmark)
    assert mean < 8 * floor
