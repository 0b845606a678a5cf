"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.analysis.runner import ExperimentSpec, Runner
from repro.core.scheduler import (
    AdversarialLaggardScheduler,
    RoundRobinScheduler,
    UniformRandomScheduler,
)
from repro.core.simulator import IndexedSimulator, SequentialSimulator

# Hypothesis profiles: "ci" pins the example stream (derandomized, no
# wall-clock deadline) so CI failures reproduce exactly and shared
# runners never flake on deadlines; select it with
# HYPOTHESIS_PROFILE=ci.  The default profile stays in charge locally.
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def converge(protocol, n, seed=0, max_steps=None, check_interval=1):
    """Run the event-driven engine to stabilization and return the result."""
    sim = IndexedSimulator(seed=seed)
    return sim.run(
        protocol,
        n,
        max_steps,
        check_interval=check_interval,
        require_convergence=max_steps is not None,
    )


def trial_times(protocol, n, trials, **fields):
    """Values of ``trials`` legacy-seeded runs of a registry spec at ``n``."""
    spec = ExperimentSpec(protocol=protocol, sizes=(n,), trials=trials,
                          seed_policy="legacy", **fields)
    return Runner().run(spec).times(n)


def converge_sequential(protocol, n, scheduler, seed=0, max_steps=2_000_000):
    """Run the reference engine under an arbitrary fair scheduler."""
    sim = SequentialSimulator(scheduler=scheduler, seed=seed)
    return sim.run(protocol, n, max_steps)


def fair_schedulers(n):
    """A representative spread of fair schedulers for correctness tests."""
    return [
        UniformRandomScheduler(),
        RoundRobinScheduler(),
        AdversarialLaggardScheduler(lagged={0, n - 1}, bias=0.85),
    ]


@pytest.fixture
def seeds():
    """Default seed batch for multi-run correctness tests."""
    return range(8)
