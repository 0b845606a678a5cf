"""Tests for the Figure 6 addressed edge read/write machinery."""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.core.simulator import IndexedSimulator
from repro.generic import ACTIVATE, COIN, DEACTIVATE, AddressedEdgeOps


def run_op(ops, config, i, j, op, seed=0):
    ops.select(config, i, j, op)
    sim = IndexedSimulator(seed=seed)
    result = sim.run(ops, config.n, None, config=config, copy_config=False)
    assert result.converged
    ops.clear_acks(config)
    return result


class TestLayout:
    def test_initial_matching(self):
        ops = AddressedEdgeOps(4)
        config = ops.initial_configuration(8)
        for i in range(4):
            assert config.edge_state(ops.u_agent(i), ops.d_agent(i)) == 1
        assert config.n_active_edges == 4

    def test_population_size_enforced(self):
        ops = AddressedEdgeOps(3)
        with pytest.raises(SimulationError):
            ops.initial_configuration(7)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(SimulationError):
            AddressedEdgeOps(1)


class TestOperations:
    def test_activate_then_deactivate(self):
        ops = AddressedEdgeOps(3)
        config = ops.initial_configuration(6)
        run_op(ops, config, 0, 2, ACTIVATE, seed=1)
        assert config.edge_state(ops.d_agent(0), ops.d_agent(2)) == 1
        run_op(ops, config, 0, 2, DEACTIVATE, seed=2)
        assert config.edge_state(ops.d_agent(0), ops.d_agent(2)) == 0

    def test_vertical_matching_untouched(self):
        ops = AddressedEdgeOps(3)
        config = ops.initial_configuration(6)
        run_op(ops, config, 0, 1, ACTIVATE, seed=3)
        for i in range(3):
            assert config.edge_state(ops.u_agent(i), ops.d_agent(i)) == 1

    def test_coin_is_roughly_fair(self):
        ops = AddressedEdgeOps(2)
        activations = 0
        trials = 200
        for seed in range(trials):
            config = ops.initial_configuration(4)
            run_op(ops, config, 0, 1, COIN, seed=seed)
            activations += config.edge_state(ops.d_agent(0), ops.d_agent(1))
        assert 0.38 * trials < activations < 0.62 * trials

    def test_states_return_to_idle(self):
        ops = AddressedEdgeOps(3)
        config = ops.initial_configuration(6)
        run_op(ops, config, 1, 2, ACTIVATE, seed=4)
        for u in range(6):
            assert config.state(u)[1] == "idle"


class TestSelectionValidation:
    def test_self_loop_rejected(self):
        ops = AddressedEdgeOps(3)
        config = ops.initial_configuration(6)
        with pytest.raises(SimulationError):
            ops.select(config, 1, 1, ACTIVATE)

    def test_unknown_op_rejected(self):
        ops = AddressedEdgeOps(3)
        config = ops.initial_configuration(6)
        with pytest.raises(SimulationError):
            ops.select(config, 0, 1, "frobnicate")

    def test_busy_node_rejected(self):
        ops = AddressedEdgeOps(3)
        config = ops.initial_configuration(6)
        ops.select(config, 0, 1, ACTIVATE)
        with pytest.raises(SimulationError):
            ops.select(config, 0, 2, ACTIVATE)

    def test_operation_complete_predicate(self):
        ops = AddressedEdgeOps(2)
        config = ops.initial_configuration(4)
        assert ops.operation_complete(config)
        ops.select(config, 0, 1, ACTIVATE)
        assert not ops.operation_complete(config)
