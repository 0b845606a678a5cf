"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it prints
the measured rows/series (visible with ``pytest -s``) and asserts the
qualitative *shape* the paper reports — growth orders, who-beats-whom,
stage structure — not absolute step counts.
"""

from __future__ import annotations

import statistics

from repro.analysis import fit_power_law
from repro.analysis.runner import ExperimentSpec, Runner
from repro.protocols import registry


def sweep(protocol, sizes, trials, *, measure="output", base_seed=0,
          check_interval=1, engine="indexed", seed_policy="hashed"):
    """Mean convergence times across population sizes.

    ``protocol`` is a registry spec string or a registered parameterless
    protocol class; it runs as a declarative :class:`ExperimentSpec`
    through the :class:`Runner`.

    ``engine`` selects a :data:`repro.core.simulator.ENGINES` entry; the
    default state-indexed engine is what lets the sweeps reach sizes the
    per-node-rescan engine could not."""
    if not isinstance(protocol, str):
        protocol = registry.name_for_factory(protocol)
    spec = ExperimentSpec(
        protocol=protocol, sizes=tuple(sizes), trials=trials,
        engine=engine, measure=measure, seed_policy=seed_policy,
        base_seed=base_seed, check_interval=check_interval,
    )
    return Runner().run(spec).summaries()


def fitted_exponent(means, log_power=0):
    """Fit the polynomial exponent of a sweep's mean curve."""
    sizes = sorted(means)
    return fit_power_law(
        sizes, [means[n].mean for n in sizes], log_power=log_power
    )


def print_sweep(title, means, extra=None):
    print(f"\n=== {title} ===")
    header = f"{'n':>6} {'mean steps':>14} {'±95%':>10}"
    if extra:
        header += f" {extra[0]:>16}"
    print(header)
    for n in sorted(means):
        s = means[n]
        row = f"{n:>6} {s.mean:>14.1f} {s.ci95_halfwidth:>10.1f}"
        if extra:
            row += f" {extra[1](n):>16.1f}"
        print(row)


def single_run_stats(times):
    return statistics.fmean(times), statistics.stdev(times)
