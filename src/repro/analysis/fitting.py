"""Growth-order estimation for measured convergence times.

The paper's Table 1/Table 2 entries are asymptotic orders; the benchmark
harness verifies the *shape* of measured curves by fitting
``T(n) = C * n^alpha * (log n)^beta`` on a log-log scale.  ``beta`` is
supplied (0 or 1 in all of the paper's bounds) and ``alpha`` is estimated
by least squares with a confidence interval, so e.g. an Θ(n log n) process
should fit ``alpha ~ 1`` after dividing out one log factor, and an Θ(n²)
process should fit ``alpha ~ 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log T = alpha log n + log C."""

    exponent: float
    coefficient: float
    r_squared: float
    stderr: float
    log_power: int

    @property
    def exponent_ci95(self) -> tuple[float, float]:
        half = 1.96 * self.stderr
        return (self.exponent - half, self.exponent + half)

    def predict(self, n: float) -> float:
        return (
            self.coefficient
            * n ** self.exponent
            * math.log(n) ** self.log_power
        )

    def describe(self) -> str:
        lo, hi = self.exponent_ci95
        logpart = f" * log(n)^{self.log_power}" if self.log_power else ""
        return (
            f"T(n) ≈ {self.coefficient:.3g} * n^{self.exponent:.2f}"
            f"{logpart}   (95% CI [{lo:.2f}, {hi:.2f}], R²={self.r_squared:.4f})"
        )


def fit_power_law(
    ns: Sequence[int],
    times: Sequence[float],
    log_power: int = 0,
) -> PowerLawFit:
    """Fit ``T(n) = C n^alpha log(n)^log_power`` by log-log regression.

    ``log_power`` divides out a known logarithmic factor before fitting,
    so the returned exponent isolates the polynomial order.  Every size
    must be >= 1 (>= 2 with a log factor, since log 1 = 0) and every time
    finite and positive; anything else raises :class:`ValueError`.
    """
    if len(ns) != len(times) or len(ns) < 3:
        raise ValueError("need at least 3 (n, time) points to fit")
    min_size = 2 if log_power else 1
    for n in ns:
        if not (math.isfinite(n) and n >= min_size):
            raise ValueError(
                f"sizes must be >= {min_size} to fit a power law with "
                f"log_power={log_power}, got {n!r}"
            )
    for t in times:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(
                f"times must be finite and positive to fit a power law, got {t!r}"
            )
    # Imported here so that loading the package does not load them.
    import numpy as np
    from scipy import stats

    xs = np.log(np.asarray(ns, dtype=float))
    adjusted = np.asarray(times, dtype=float) / (
        np.log(np.asarray(ns, dtype=float)) ** log_power
    )
    ys = np.log(adjusted)
    regression = stats.linregress(xs, ys)
    return PowerLawFit(
        exponent=float(regression.slope),
        coefficient=float(math.exp(regression.intercept)),
        r_squared=float(regression.rvalue**2),
        stderr=float(regression.stderr),
        log_power=log_power,
    )


def empirical_ratio_curve(
    ns: Sequence[int],
    times: Sequence[float],
    reference: Sequence[float],
) -> list[float]:
    """Ratios measured/reference — flat (±noise) when the reference curve
    has the right shape.  Used to compare against the exact Prop. 1-7
    expectations."""
    if not (len(ns) == len(times) == len(reference)):
        raise ValueError("mismatched lengths")
    return [t / r for t, r in zip(times, reference)]


def crossover_size(
    ns: Sequence[int],
    times_a: Sequence[float],
    times_b: Sequence[float],
) -> int | None:
    """First n at which curve A becomes (and stays) cheaper than B,
    or None if it never does."""
    winner_from = None
    for n, a, b in zip(ns, times_a, times_b):
        if a < b:
            if winner_from is None:
                winner_from = n
        else:
            winner_from = None
    return winner_from
