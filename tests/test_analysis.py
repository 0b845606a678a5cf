"""Tests for the measurement/estimation toolkit."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    MEASURES,
    ExperimentSpec,
    Runner,
    crossover_size,
    empirical_ratio_curve,
    fit_power_law,
    summarize,
)
from repro.protocols.bounds import (
    cycle_cover_lower_bound,
    elect_then_build_line_upper_bound,
    harmonic,
    log2_ceil,
    pairs,
    spanning_line_lower_bound,
    spanning_network_lower_bound,
    spanning_ring_lower_bound,
    spanning_star_lower_bound,
)
from tests.conftest import trial_times


class TestFitting:
    def test_exact_power_law_recovered(self):
        ns = [10, 20, 40, 80, 160]
        times = [3.0 * n**2 for n in ns]
        fit = fit_power_law(ns, times)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_log_factor_divided_out(self):
        ns = [16, 32, 64, 128]
        times = [5.0 * n * math.log(n) for n in ns]
        fit = fit_power_law(ns, times, log_power=1)
        assert fit.exponent == pytest.approx(1.0, abs=0.01)

    def test_predict_roundtrip(self):
        ns = [10, 20, 40]
        times = [2.0 * n**3 for n in ns]
        fit = fit_power_law(ns, times)
        assert fit.predict(80) == pytest.approx(2.0 * 80**3, rel=0.01)

    def test_describe_mentions_ci(self):
        fit = fit_power_law([10, 20, 40], [1.0, 4.0, 16.0])
        assert "95% CI" in fit.describe()

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([10, 20], [1.0, 2.0])

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([10, 20, 40], [1.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "ns, times, log_power, bad",
        [
            ([1, 2, 4, 8], [1.0, 2.0, 4.0, 8.0], 1, "got 1"),
            ([10, 20, 40], [1.0, math.nan, 2.0], 0, "got nan"),
            ([10, 20, 40], [1.0, math.inf, 2.0], 0, "got inf"),
            ([0, 20, 40], [1.0, 2.0, 4.0], 0, "got 0"),
        ],
        ids=["log-of-one", "nan-time", "inf-time", "zero-size"],
    )
    def test_degenerate_inputs_rejected(self, ns, times, log_power, bad):
        with pytest.raises(ValueError, match=bad):
            fit_power_law(ns, times, log_power=log_power)


class TestCurves:
    def test_empirical_ratio_flat_for_right_reference(self):
        ns = [10, 20, 40]
        times = [2.0 * n for n in ns]
        ratios = empirical_ratio_curve(ns, times, [float(n) for n in ns])
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_crossover_detection(self):
        ns = [10, 20, 30, 40]
        a = [100, 90, 50, 40]
        b = [60, 70, 80, 90]
        assert crossover_size(ns, a, b) == 30
        assert crossover_size(ns, b, a) is None


class TestTrialRunner:
    def test_run_trials_reproducible(self):
        t1 = trial_times("one-way-epidemic", 8, 5, measure="last_change")
        t2 = trial_times("one-way-epidemic", 8, 5, measure="last_change")
        assert t1 == t2

    def test_measures_available(self):
        assert set(MEASURES) == {"output", "last_change", "steps", "effective"}

    def test_summarize(self):
        s = summarize(10, [1, 2, 3, 4, 5])
        assert s.mean == 3.0
        assert s.minimum == 1 and s.maximum == 5
        lo, hi = s.ci95
        assert lo < 3.0 < hi

    def test_measure_convergence_sweep(self):
        spec = ExperimentSpec(
            protocol="one-way-epidemic", sizes=(6, 8), trials=4,
            measure="last_change",
        )
        sweep = Runner().run(spec).summaries()
        assert set(sweep) == {6, 8}
        assert all(s.trials == 4 for s in sweep.values())


class TestLowerBounds:
    def test_monotone_in_n(self):
        for bound in (
            spanning_network_lower_bound,
            spanning_line_lower_bound,
            spanning_ring_lower_bound,
            cycle_cover_lower_bound,
            spanning_star_lower_bound,
        ):
            values = [bound(n) for n in (10, 20, 40, 80)]
            assert values == sorted(values)
            assert values[0] > 0

    def test_star_bound_dominates_line_bound_asymptotically(self):
        # Ω(n² log n) vs Ω(n²)
        assert spanning_star_lower_bound(1000) > spanning_line_lower_bound(1000)

    def test_helpers(self):
        assert pairs(10) == 45
        assert harmonic(1) == 1.0
        assert log2_ceil(1) == 0
        assert log2_ceil(8) == 3
        assert log2_ceil(9) == 4
        with pytest.raises(ValueError):
            log2_ceil(0)

    def test_elect_then_build_estimate(self):
        assert elect_then_build_line_upper_bound(50) > 0
