"""Tests for the Section 3.3 fundamental processes (Table 1) and their
exact analytic expectations (Propositions 1-7)."""

from __future__ import annotations

import statistics

import pytest

from repro.core.graphs import is_perfect_matching
from repro.processes import (
    ALL_PROCESSES,
    EdgeCover,
    MaximumMatchingProcess,
    MeetEverybody,
    NodeCover,
    OneToAllElimination,
    OneToOneElimination,
    OneWayEpidemic,
    edge_cover_expectation,
    expectation,
    harmonic,
    maximum_matching_expectation,
    meet_everybody_expectation,
    node_cover_bounds,
    one_to_all_elimination_expectation,
    one_to_one_elimination_expectation,
    one_way_epidemic_expectation,
    pairs,
)
from repro.protocols import registry
from tests.conftest import converge, trial_times


class TestProcessOutcomes:
    def test_epidemic_infects_everyone(self, seeds):
        for seed in seeds:
            result = converge(OneWayEpidemic(), 10, seed=seed)
            assert result.config.state_counts() == {"a": 10}

    def test_one_to_one_leaves_single_survivor(self, seeds):
        for seed in seeds:
            result = converge(OneToOneElimination(), 11, seed=seed)
            assert result.config.state_counts().get("a", 0) == 1

    def test_one_to_all_eliminates_every_a(self, seeds):
        for seed in seeds:
            result = converge(OneToAllElimination(), 11, seed=seed)
            assert result.config.state_counts().get("a", 0) == 0

    def test_matching_is_maximum(self, seeds):
        for seed in seeds:
            for n in (8, 9):
                result = converge(MaximumMatchingProcess(), n, seed=seed)
                assert is_perfect_matching(result.config.output_graph())

    def test_meet_everybody_converts_all(self, seeds):
        for seed in seeds:
            result = converge(MeetEverybody(), 9, seed=seed)
            counts = result.config.state_counts()
            assert counts == {"a": 1, "c": 8}

    def test_node_cover_flips_everyone(self, seeds):
        for seed in seeds:
            result = converge(NodeCover(), 10, seed=seed)
            assert result.config.state_counts() == {"b": 10}

    def test_edge_cover_activates_all_pairs(self, seeds):
        for seed in seeds:
            result = converge(EdgeCover(), 8, seed=seed)
            assert result.config.n_active_edges == 28


class TestExactExpectations:
    """Closed forms from the proofs, checked structurally."""

    def test_epidemic_equals_harmonic_form(self):
        # (n-1) * H_{n-1}, by the telescoping partial fractions.
        for n in (5, 17, 60):
            assert one_way_epidemic_expectation(n) == pytest.approx(
                (n - 1) * harmonic(n - 1)
            )

    def test_one_to_one_closed_form(self):
        for n in (2, 7, 40):
            brute = n * (n - 1) * sum(
                1.0 / (i * (i - 1)) for i in range(2, n + 1)
            )
            assert one_to_one_elimination_expectation(n) == pytest.approx(brute)

    def test_matching_epoch_sum(self):
        assert maximum_matching_expectation(4) == pytest.approx(
            12 / 12 + 12 / 2
        )

    def test_one_to_all_bounds_from_paper(self):
        # n/2 * H_{2n-3} <~ E <~ n (H_2n + 1): check the Θ(n log n) window.
        for n in (10, 50):
            value = one_to_all_elimination_expectation(n)
            assert (n - 1) / 2 * (harmonic(2 * n - 2) - 1) < value
            assert value < n * (harmonic(2 * n) + 1)

    def test_meet_everybody_is_m_harmonic(self):
        for n in (4, 12):
            assert meet_everybody_expectation(n) == pytest.approx(
                pairs(n) * harmonic(n - 1)
            )

    def test_edge_cover_is_m_log_m(self):
        n = 10
        m = pairs(n)
        assert edge_cover_expectation(n) == pytest.approx(m * harmonic(m))

    def test_node_cover_bounds_ordered(self):
        for n in (6, 20, 100):
            lower, upper = node_cover_bounds(n)
            assert 0 < lower < upper

    def test_expectation_lookup(self):
        assert expectation("One-Way-Epidemic", 10) is not None
        assert expectation("Node-Cover", 10) is None


@pytest.mark.parametrize("process_cls", ALL_PROCESSES)
class TestMeasuredAgainstTheory:
    """Measured means must land near the exact expectations (Table 1)."""

    def test_mean_matches_expectation(self, process_cls):
        process = process_cls()
        n, trials = 24, 60
        times = trial_times(
            registry.spec_for(process), n, trials,
            measure="last_change", base_seed=100,
        )
        mean = statistics.fmean(times)
        exact = expectation(process.name, n)
        if exact is None:
            lower, upper = node_cover_bounds(n)
            assert lower * 0.7 <= mean <= upper * 1.3
        else:
            assert abs(mean - exact) / exact < 0.3, (process.name, mean, exact)
