"""Ablation — the two exact engines against each other.

DESIGN.md calls out the geometric-skip engine as the key engineering
choice; this benchmark quantifies it: identical distributions (checked in
the test suite) but wall-clock work proportional to effective interactions
instead of total steps.  The state-indexed bookkeeping keeps each
effective interaction O(1) amortized instead of an O(n) rescan, which is
what lets the skip-factor sweep reach n=160 (the seed topped out at n=80).
"""

from __future__ import annotations

from repro.core.simulator import IndexedSimulator, SequentialSimulator
from repro.protocols import GlobalStar


def run_indexed():
    result = IndexedSimulator(seed=1).run(GlobalStar(), 40, None)
    assert result.converged
    return result


def run_sequential():
    result = SequentialSimulator(seed=1).run(GlobalStar(), 40, max_steps=10_000_000)
    assert result.converged
    return result


def test_ablation_indexed_engine(benchmark):
    result = benchmark.pedantic(run_indexed, rounds=5, iterations=1)
    print(
        f"\nindexed: {result.steps} steps simulated via "
        f"{result.effective_steps} effective interactions "
        f"({result.steps / max(1, result.effective_steps):.0f}x skip factor)"
    )


def test_ablation_sequential_engine(benchmark):
    result = benchmark.pedantic(run_sequential, rounds=3, iterations=1)
    print(f"\nsequential: {result.steps} steps walked one by one")


def test_ablation_skip_factor_grows_with_n(benchmark):
    """The skip factor (steps per effective interaction) grows with n —
    exactly the waste the event-driven engines avoid.  Swept with the
    indexed engine, one tier beyond the seed's largest size."""
    factors = []
    for n in (10, 20, 40, 80, 160):
        result = IndexedSimulator(seed=2).run(GlobalStar(), n, None)
        factors.append(result.steps / max(1, result.effective_steps))
    print(f"\nskip factors for n=10..160: {[f'{f:.1f}' for f in factors]}")
    assert factors[-1] > factors[0]
    benchmark.pedantic(
        lambda: IndexedSimulator(seed=3).run(GlobalStar(), 40, None),
        rounds=3,
        iterations=1,
    )
