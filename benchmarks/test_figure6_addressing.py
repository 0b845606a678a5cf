"""Experiment F6 — regenerate Figure 6: counter-addressed D-node marking
and edge read/write through the vertical matching.

Series reported: interaction steps per addressed edge operation as a
function of the number of (U, D) pairs, plus the fairness of the
rule-level coin used by the drawing phase.
"""

from __future__ import annotations

from repro.analysis import fit_power_law
from repro.core.simulator import IndexedSimulator
from repro.generic import ACTIVATE, COIN, DEACTIVATE, AddressedEdgeOps


def run_op(ops, config, i, j, op, seed):
    ops.select(config, i, j, op)
    result = IndexedSimulator(seed=seed).run(
        ops, config.n, None, config=config, copy_config=False
    )
    ops.clear_acks(config)
    return result.steps


def test_figure6_cost_per_edge_operation(benchmark):
    sizes = (4, 6, 9, 14)
    print("\n=== Figure 6 / addressed edge-op cost ===")
    print(f"{'pairs k':>8} {'mean steps/op':>14}")
    means = []
    for k in sizes:
        ops = AddressedEdgeOps(k)
        config = ops.initial_configuration(2 * k)
        total = 0
        count = 0
        for seed in range(12):
            i, j = seed % k, (seed + 1 + seed // k) % k
            if i == j:
                continue
            total += run_op(ops, config, i, j, ACTIVATE if seed % 2 else DEACTIVATE, seed)
            count += 1
        means.append(total / count)
        print(f"{k:>8} {means[-1]:>14.1f}")
    fit = fit_power_law(sizes, means)
    print(f"fit: {fit.describe()}")
    # each op waits for specific pairs among ~ (2k)² choices
    assert 1.2 < fit.exponent < 2.8, fit.describe()
    ops = AddressedEdgeOps(5)

    def one_op():
        config = ops.initial_configuration(10)
        run_op(ops, config, 0, 3, ACTIVATE, 1)

    benchmark.pedantic(one_op, rounds=5, iterations=1)


def test_figure6_rule_level_coin_fairness(benchmark):
    """The PREL coin applied by the marked D-D interaction activates the
    addressed edge with probability 1/2."""
    ops = AddressedEdgeOps(3)
    activations = 0
    trials = 300
    for seed in range(trials):
        config = ops.initial_configuration(6)
        run_op(ops, config, 0, 2, COIN, seed)
        activations += config.edge_state(ops.d_agent(0), ops.d_agent(2))
    rate = activations / trials
    print(f"\nFigure 6 coin: activation rate {rate:.3f} over {trials} tosses")
    assert 0.42 < rate < 0.58

    def one_coin():
        config = ops.initial_configuration(6)
        run_op(ops, config, 0, 1, COIN, 7)

    benchmark.pedantic(one_coin, rounds=5, iterations=1)
