"""Experiment T1 — regenerate Table 1: expected convergence times of the
seven fundamental probabilistic processes (paper Propositions 1-7).

For each process we measure mean convergence over a size sweep, print the
paper-style table row (measured vs the exact analytic expectation), and
assert the claimed asymptotic order by fitting the polynomial exponent
after dividing out the known logarithmic factor.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import fitted_exponent, print_sweep, sweep
from repro.processes import (
    EdgeCover,
    MaximumMatchingProcess,
    MeetEverybody,
    NodeCover,
    OneToAllElimination,
    OneToOneElimination,
    OneWayEpidemic,
    expectation,
    node_cover_bounds,
)

SIZES = (16, 24, 36, 54)
TRIALS = 20

#: (factory, paper order, log factor to divide out, expected exponent window)
CASES = {
    "One-Way-Epidemic": (OneWayEpidemic, "Θ(n log n)", 1, (0.6, 1.4)),
    "One-To-One-Elimination": (OneToOneElimination, "Θ(n²)", 0, (1.6, 2.4)),
    "Maximum-Matching": (MaximumMatchingProcess, "Θ(n²)", 0, (1.6, 2.4)),
    "One-To-All-Elimination": (OneToAllElimination, "Θ(n log n)", 1, (0.6, 1.4)),
    "Meet-Everybody": (MeetEverybody, "Θ(n² log n)", 1, (1.6, 2.4)),
    "Node-Cover": (NodeCover, "Θ(n log n)", 1, (0.6, 1.4)),
    "Edge-Cover": (EdgeCover, "Θ(n² log n)", 1, (1.6, 2.4)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_table1_row(benchmark, name):
    factory, order, log_power, window = CASES[name]
    means = sweep(factory, SIZES, TRIALS, measure="last_change")
    print_sweep(
        f"Table 1 / {name}   paper: {order}",
        means,
        extra=(
            "exact E[X]",
            lambda n: expectation(name, n) or sum(node_cover_bounds(n)) / 2,
        ),
    )
    fit = fitted_exponent(means, log_power=log_power)
    print(f"fitted: {fit.describe()}")
    low, high = window
    assert low < fit.exponent < high, (name, fit.describe())
    # Measured means must track the exact expectations (Props 1-7).
    for n in SIZES:
        exact = expectation(name, n)
        if exact is not None:
            assert abs(means[n].mean - exact) / exact < 0.35, (name, n)
        else:
            lower, upper = node_cover_bounds(n)
            assert 0.6 * lower <= means[n].mean <= 1.4 * upper

    benchmark.pedantic(
        lambda: sweep(factory, (24,), 3, measure="last_change",
                      seed_policy="legacy"),
        rounds=3,
        iterations=1,
    )
