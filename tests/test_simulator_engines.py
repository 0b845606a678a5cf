"""Tests for the two exact simulation engines, including their equivalence.

The indexed engine's geometric skip must be *distributionally
identical* to the sequential engine under the uniform random scheduler —
verified here on processes whose expected times are known exactly.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.protocol import TableProtocol
from repro.core.simulator import (
    IndexedSimulator,
    SequentialSimulator,
    apply_interaction,
)
from repro.core.trace import Trace
from repro.processes import (
    OneWayEpidemic,
    one_way_epidemic_expectation,
)
from repro.protocols import GlobalStar, SimpleGlobalLine


class TestApplyInteraction:
    def test_identity_when_undefined(self):
        protocol = TableProtocol("t", "a", {("a", "b", 0): ("b", "b", 0)})
        config = Configuration(["a", "a"])
        import random

        result = apply_interaction(protocol, config, 0, 1, random.Random(0))
        assert result is None

    def test_swapped_orientation_applies_to_right_nodes(self):
        protocol = TableProtocol("t", "a", {("a", "b", 0): ("x", "y", 1)})
        config = Configuration(["b", "a"])  # rule matches (b=node1, a=node0)
        import random

        result = apply_interaction(protocol, config, 0, 1, random.Random(0))
        assert result is not None
        assert config.state(0) == "y"  # node 0 held 'b', the second slot
        assert config.state(1) == "x"
        assert config.edge_state(0, 1) == 1

    def test_symmetry_breaking_is_equiprobable(self):
        protocol = TableProtocol("t", "a", {("a", "a", 0): ("w", "l", 0)})
        import random

        rng = random.Random(7)
        firsts = 0
        for _ in range(2000):
            config = Configuration(["a", "a"])
            apply_interaction(protocol, config, 0, 1, rng)
            if config.state(0) == "w":
                firsts += 1
        assert 850 < firsts < 1150

    def test_self_interaction_rejected(self):
        protocol = TableProtocol("t", "a", {})
        config = Configuration(["a", "a"])
        import random

        with pytest.raises(SimulationError):
            apply_interaction(protocol, config, 0, 0, random.Random(0))


class TestSequentialEngine:
    def test_stabilizes_star(self):
        sim = SequentialSimulator(seed=0)
        result = sim.run(GlobalStar(), 10, max_steps=500_000)
        assert result.converged
        assert GlobalStar().target_reached(result.config)

    def test_max_steps_respected(self):
        sim = SequentialSimulator(seed=0)
        result = sim.run(GlobalStar(), 30, max_steps=5)
        assert not result.converged
        assert result.steps == 5
        assert result.stop_reason == "max_steps"

    def test_require_convergence_raises(self):
        sim = SequentialSimulator(seed=0)
        with pytest.raises(ConvergenceError):
            sim.run(GlobalStar(), 30, max_steps=5, require_convergence=True)

    def test_trace_records_events(self):
        trace = Trace()
        sim = SequentialSimulator(seed=1)
        result = sim.run(GlobalStar(), 8, max_steps=500_000, trace=trace)
        assert result.converged
        assert len(trace) == result.effective_steps
        assert trace.activations()  # the star activated edges


class TestEngineEquivalence:
    """Both engines must sample the same convergence-time distribution."""

    def test_epidemic_means_agree_with_theory_and_each_other(self):
        n, trials = 12, 400
        exact = one_way_epidemic_expectation(n)

        seq_times = []
        for seed in range(trials):
            sim = SequentialSimulator(seed=seed)
            result = sim.run(OneWayEpidemic(), n, max_steps=100_000)
            seq_times.append(result.last_change_step)
        idx_times = []
        for seed in range(trials):
            result = IndexedSimulator(seed=seed).run(OneWayEpidemic(), n, None)
            idx_times.append(result.last_change_step)

        seq_mean = statistics.fmean(seq_times)
        idx_mean = statistics.fmean(idx_times)
        assert abs(seq_mean - exact) / exact < 0.15
        assert abs(idx_mean - exact) / exact < 0.15
        assert abs(seq_mean - idx_mean) / exact < 0.2

    def test_same_stable_outputs(self):
        for seed in range(5):
            seq = SequentialSimulator(seed=seed).run(
                GlobalStar(), 9, max_steps=10_000_000
            )
            idx = IndexedSimulator(seed=seed).run(GlobalStar(), 9, None)
            assert seq.converged and idx.converged
            assert GlobalStar().target_reached(seq.config)
            assert GlobalStar().target_reached(idx.config)

    def test_step_count_distributions_ks(self):
        """Two-sample Kolmogorov-Smirnov: the full convergence-time
        distributions (not just the means) of the two engines must be
        indistinguishable — the geometric-skip construction is exact."""
        from scipy.stats import ks_2samp

        n, trials = 8, 500
        seq_times = [
            SequentialSimulator(seed=s).run(
                OneWayEpidemic(), n, max_steps=100_000
            ).last_change_step
            for s in range(trials)
        ]
        idx_times = [
            IndexedSimulator(seed=10_000 + s)
            .run(OneWayEpidemic(), n, None)
            .last_change_step
            for s in range(trials)
        ]
        statistic, p_value = ks_2samp(seq_times, idx_times)
        assert p_value > 0.001, (statistic, p_value)


class TestEngineSpeed:
    """The indexed engine exists to skip ineffective steps; on the
    Figure 2 line it must stay well ahead of the step-by-step reference
    (54-61x at seed 0 on a 2-CPU host, medians of 12 repeats, with a
    40-79x range; the 5x bar leaves room for a loaded machine)."""

    def test_indexed_at_least_5x_faster_than_sequential_on_line(self):
        seconds = {}
        for engine in (SequentialSimulator, IndexedSimulator):
            start = time.perf_counter()
            result = engine(seed=0).run(SimpleGlobalLine(), 60, 10_000_000)
            seconds[engine.__name__] = time.perf_counter() - start
            assert result.converged, (engine.__name__, result.stop_reason)
        assert (
            seconds["SequentialSimulator"] >= 5 * seconds["IndexedSimulator"]
        ), seconds
