"""Measurement and estimation toolkit: the declarative sweep runner,
robustness grids, power-law fitting and table rendering behind the
``benchmarks/`` figure tests and the CLI.  Every sweep runs as an
:class:`ExperimentSpec` through a :class:`Runner`."""

from repro.analysis.fitting import (
    PowerLawFit,
    crossover_size,
    empirical_ratio_curve,
    fit_power_law,
)
from repro.analysis.robustness import (
    FAULT_FAMILIES,
    RobustnessRecord,
    RobustnessResult,
    RobustnessSpec,
    RobustnessTrial,
    run_robustness,
    run_robustness_trial,
)
from repro.analysis.runner import (
    MEASURES,
    SEED_POLICIES,
    ExperimentSpec,
    Runner,
    Summary,
    SweepResult,
    TrialRecord,
    TrialSpec,
    run_trial,
    summarize,
)
from repro.analysis.tables import format_mean_ci, render_table

__all__ = [
    "ExperimentSpec",
    "FAULT_FAMILIES",
    "MEASURES",
    "PowerLawFit",
    "RobustnessRecord",
    "RobustnessResult",
    "RobustnessSpec",
    "RobustnessTrial",
    "Runner",
    "SEED_POLICIES",
    "Summary",
    "SweepResult",
    "TrialRecord",
    "TrialSpec",
    "crossover_size",
    "empirical_ratio_curve",
    "fit_power_law",
    "format_mean_ci",
    "render_table",
    "run_robustness",
    "run_robustness_trial",
    "run_trial",
    "summarize",
]
