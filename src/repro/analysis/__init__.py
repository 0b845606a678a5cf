"""Measurement and estimation toolkit: the declarative sweep runner,
robustness grids and power-law fitting behind the ``benchmarks/``
figure tests and the CLI.  Every sweep runs as an
:class:`ExperimentSpec` through a :class:`Runner`."""

from repro.analysis.fitting import (
    PowerLawFit,
    crossover_size,
    empirical_ratio_curve,
    fit_power_law,
)
from repro.analysis.robustness import (
    FAULT_FAMILIES,
    RobustnessResult,
    RobustnessSpec,
    run_robustness,
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

__all__ = [
    "ExperimentSpec",
    "FAULT_FAMILIES",
    "MEASURES",
    "PowerLawFit",
    "RobustnessResult",
    "RobustnessSpec",
    "Runner",
    "SEED_POLICIES",
    "Summary",
    "SweepResult",
    "TrialRecord",
    "TrialSpec",
    "crossover_size",
    "empirical_ratio_curve",
    "fit_power_law",
    "run_robustness",
    "run_trial",
    "summarize",
]
