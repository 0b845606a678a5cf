"""The count engine: routing, regimes, and the equivalence gate.

The count engine (:class:`repro.core.counting.CountSimulator`) is the
anonymity-native fourth engine: a run is a ``(state -> count)`` census
plus the annealed edge statistic, stepped in tau-leaped batches above
``leap_threshold`` and run on the indexed engine's walk below it, both
through the one run loop every engine shares.  This suite pins the
contract from both sides:

* **routing** — ``supports()`` declines exactly the identity-based
  scenarios (cut/byzantine faults, doped/graph inits, non-uniform
  schedulers) and ``resolve_engine`` falls back to the sequential
  reference for them;
* **exact regime** — below the threshold the engine is bit-identical to
  the indexed engine, so the KS/CI-band distributional gates (faultless
  Figure-2 line, and crash / arrivals / churn / edge-rate scenarios)
  compare genuinely independent seed ranges of the same law;
* **leap regime** — forced with ``leap_threshold=0``: close to the
  one-way epidemic's closed-form expectation at small n (it drifts
  16-17% slow by n = 2000, so it is not exact), structurally convergent
  on the line family up to n = 10^5, and invariant-preserving under
  census-wise faults;
* **census round-trip** — Hypothesis properties for
  ``Configuration.census`` / ``from_census`` conservation and for
  :func:`derive_edge_census` / :func:`census_sample_states`.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import simulator
from repro.core.configuration import Census, Configuration, census_pair_key
from repro.core.counting import (
    IDENTITY_FAULTS,
    IDENTITY_INITS,
    CountSimulator,
    derive_edge_census,
)
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.faults import DEAD, census_sample_states
from repro.core.scenario import Scenario, resolve_engine
from repro.core.simulator import (
    ENGINES,
    IndexedSimulator,
    SequentialSimulator,
    make_engine,
    run_to_convergence,
)
from repro.processes import OneWayEpidemic, one_way_epidemic_expectation
from repro.protocols import FTGlobalLine, SimpleGlobalLine


class TestEngineRouting:
    """Registration and anonymity-aware scenario routing."""

    def test_registered_as_fourth_engine(self):
        assert "count" in ENGINES
        sim = make_engine("count", seed=0)
        assert isinstance(sim, CountSimulator)
        # The exact regime is inherited, not reimplemented.
        assert isinstance(sim, IndexedSimulator)

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(),
            Scenario(faults=("crash:count=1,at=40",)),
            Scenario(faults=("arrive:count=2,at=40",)),
            Scenario(faults=("churn:rate=0.001",)),
            Scenario(faults=("edge-rate:rate=0.0001",)),
            Scenario(faults=("edge-drop:rate=0.002",)),
        ],
        ids=lambda s: s.describe(),
    )
    def test_supports_census_safe_scenarios(self, scenario):
        assert CountSimulator.supports(scenario)
        assert resolve_engine("count", scenario) == "count"

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(faults=("cut:edges=0-1,at=10",)),
            Scenario(faults=("byzantine:count=1,rate=0.001,lie=0.5",)),
            Scenario(init="doped:state=l,count=2"),
            Scenario(init="graph:graph=path-4"),
            Scenario(scheduler="rr"),
            Scenario(scheduler="laggard:lagged=0..1"),
            Scenario(scheduler="targeted:aim=leader"),
        ],
        ids=lambda s: s.describe(),
    )
    def test_declines_identity_based_scenarios(self, scenario):
        assert not CountSimulator.supports(scenario)
        # The scenario layer falls back to the per-node reference engine
        # rather than running an anonymity-unsafe census.
        assert resolve_engine("count", scenario, warn=False) == "sequential"
        with pytest.raises(SimulationError):
            make_engine("count", 0, scenario)

    def test_identity_sets_cover_the_declined_prefixes(self):
        assert IDENTITY_FAULTS == {"cut", "byzantine"}
        assert IDENTITY_INITS == {"doped", "graph"}


class TestExactRegime:
    """Below ``leap_threshold`` the count engine *is* the indexed
    engine: same seed, same trajectory, bit for bit."""

    def test_bit_identical_to_indexed(self):
        for seed in range(5):
            cnt = CountSimulator(seed=seed).run(SimpleGlobalLine(), 9, None)
            idx = IndexedSimulator(seed=seed).run(SimpleGlobalLine(), 9, None)
            assert cnt.steps == idx.steps
            assert cnt.effective_steps == idx.effective_steps
            assert cnt.last_change_step == idx.last_change_step
            assert cnt.config.census() == idx.config.census()

    def test_bit_identical_under_faults(self):
        scenario = Scenario(faults=("crash:count=2,at=50",))
        for seed in range(3):
            cnt = CountSimulator(seed=seed, faults=scenario.make_faults()).run(
                FTGlobalLine(), 10, 500_000
            )
            idx = IndexedSimulator(seed=seed, faults=scenario.make_faults()).run(
                FTGlobalLine(), 10, 500_000
            )
            assert cnt.steps == idx.steps
            assert cnt.config.census() == idx.config.census()

    def test_threshold_is_configurable(self):
        assert CountSimulator(seed=0).leap_threshold == (
            CountSimulator.DEFAULT_LEAP_THRESHOLD
        )
        assert CountSimulator(seed=0, leap_threshold=17).leap_threshold == 17


class TestOneRunLoop:
    """Every engine runs through one loop, ``_ExactEngine.run``; the leap
    regime is the count engine's census walk of it."""

    def test_every_engine_runs_the_one_loop(self):
        assert SequentialSimulator.run is IndexedSimulator.run is CountSimulator.run
        # Each is also bound in its own class body, so tooling can wrap
        # one engine's run alone.
        assert "run" in IndexedSimulator.__dict__
        assert "run" in CountSimulator.__dict__

    def test_leap_budget_exhaustion_raises(self, monkeypatch):
        walks = []
        census_walk = CountSimulator._census_walk

        def recorded(self, *args):
            walks.append(census_walk(self, *args))
            return walks[-1]

        monkeypatch.setattr(CountSimulator, "_census_walk", recorded)
        with pytest.raises(ConvergenceError) as info:
            run_to_convergence(
                SimpleGlobalLine(), 5000, engine="count", max_steps=10, seed=1
            )
        assert info.value.steps == 10
        assert len(walks) == 1 and walks[0] is not None, "not a leap run"


class TestLeapRegime:
    """``leap_threshold=0`` forces the tau-leaped census path."""

    def test_leap_hook_observes_batched_steps(self):
        sim = CountSimulator(seed=1, leap_threshold=0)
        leaps = []
        sim.leap_hook = lambda steps, counts, ends, k: leaps.append(k)
        result = sim.run(SimpleGlobalLine(), 64, 10_000_000)
        assert result.converged
        assert leaps and all(k >= 1 for k in leaps)
        # Batching is the point: far fewer leaps than scheduler steps.
        assert len(leaps) < result.steps

    def test_epidemic_mean_matches_closed_form(self):
        # At n = 12 the leap regime's mean stays within 10% of the
        # closed-form coupon-collector expectation; at larger n it runs
        # 16-17% slow (see the module docstring of core/counting.py).
        n, trials = 12, 300
        exact = one_way_epidemic_expectation(n)
        times = [
            CountSimulator(seed=s, leap_threshold=0)
            .run(OneWayEpidemic(), n, None)
            .last_change_step
            for s in range(trials)
        ]
        mean = statistics.fmean(times)
        assert abs(mean - exact) / exact < 0.1, (mean, exact)

    def test_nonuniform_initial_configuration_is_honored(self):
        # Regression: the leap path must take the census of an
        # overridden initial_configuration (one seeded infection), not
        # assume the all-initial_state uniform start — which would be
        # quiescent at step 0 here.
        result = CountSimulator(seed=0, leap_threshold=0).run(
            OneWayEpidemic(), 12, None
        )
        assert result.steps > 0
        assert result.config.count_in_state("a") == 12

    def test_line_family_converges_structurally(self):
        for seed in range(5):
            result = CountSimulator(seed=seed, leap_threshold=0).run(
                SimpleGlobalLine(), 120, 10**11, require_convergence=False
            )
            assert result.converged, result.stop_reason
            census = result.config.census()
            census.validate()
            # A spanning line: n-1 active edges over the alive nodes.
            assert result.config.n_active_edges == 119

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_figure2_line_stabilizes_at_scale(self, n):
        """The leap regime must finish the line construction at scale, in
        seconds (0.2 s at n = 10^4 and about 1 s at 10^5 on a 2-CPU
        host).  Its step counts follow a different law from the exact
        engines', so only stabilization and wall clock are gated."""
        start = time.perf_counter()
        result = make_engine("count", seed=7).run(SimpleGlobalLine(), n, None)
        assert result.stop_reason == "stabilized"
        assert time.perf_counter() - start < 60.0

    def test_crash_faults_hold_census_invariants(self):
        scenario = Scenario(faults=("crash:count=2,at=50",))
        for seed in range(3):
            sim = CountSimulator(
                seed=seed, faults=scenario.make_faults(), leap_threshold=0
            )
            result = sim.run(
                FTGlobalLine(), 60, 10**10, require_convergence=False
            )
            config = result.config
            dead = [u for u in range(config.n) if config.state(u) == DEAD]
            assert len(dead) == 2
            assert all(not config.neighbors(u) for u in dead)
            config.census().validate()

    def test_arrivals_grow_the_census(self):
        scenario = Scenario(faults=("arrive:count=3,at=100",))
        sim = CountSimulator(
            seed=2, faults=scenario.make_faults(), leap_threshold=0
        )
        result = sim.run(
            SimpleGlobalLine(), 50, 10**10, require_convergence=False
        )
        assert result.config.n == 53

    def test_churn_events_cost_no_per_node_work(self, monkeypatch):
        """One-way epidemic at n = 10^5 under ``churn:rate=0.001``: each
        of the ~3,000 churn events must cost per state, not per node.
        The fault plan gets the alive ids as a ``range`` and the rule
        picks its victim without copying them; building and sorting a
        10^5-id list per event made this run take ~14 s instead of
        ~0.5 s.  The seeded outcome is pinned."""
        compile_plan = simulator.compile_fault_plan
        costs = []

        def measured_plan(*args, **kwargs):
            plan = compile_plan(*args, **kwargs)
            actions_at = plan.actions_at

            def measured(step, config, alive):
                tracemalloc.start()
                try:
                    actions = actions_at(step, config, alive)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                costs.append(sys.getsizeof(alive) + peak)
                return actions

            plan.actions_at = measured
            return plan

        monkeypatch.setattr(simulator, "compile_fault_plan", measured_plan)
        faults = Scenario(faults=("churn:rate=0.001",)).make_faults()
        result = CountSimulator(seed=1, faults=faults).run(
            OneWayEpidemic(), 100_000, 3_000_000
        )
        assert (result.stop_reason, result.steps, result.effective_steps) == (
            "max_steps", 3_000_000, 102_428,
        )
        assert len(costs) > 2_500
        # A 10^5-id list alone is 0.8 MB.
        assert max(costs) < 10_000, max(costs)

    def test_inert_protocol_is_quiescent_immediately(self):
        class Inert(SimpleGlobalLine):
            def delta(self, a, b, c):
                return None

        result = CountSimulator(seed=0, leap_threshold=0).run(
            Inert(), 100, 10_000
        )
        assert result.converged and result.steps == 0


def _times(engine, protocol_factory, n, scenario, budget, seeds, *,
           require_convergence=True):
    """Convergence-measure samples of one engine over a scenario."""
    times = []
    for seed in seeds:
        sim = make_engine(engine, seed, scenario)
        result = sim.run(
            protocol_factory(), n, budget,
            require_convergence=require_convergence,
        )
        times.append(result.last_output_change_step)
    return times


class TestDistributionalEquivalence:
    """The seeded KS gate of the acceptance criteria: the count engine
    must sample the same law as the indexed engine, on the faultless
    Figure-2 line and under census-wise faults.  Disjoint seed ranges
    make the samples independent; at these populations the count engine
    is in its exact regime, which is precisely the regime the gate
    certifies (the leap regime is gated by the census-Markov and
    structural tests above)."""

    TRIALS = 250

    def _check(self, protocol_factory, n, scenario, budget, *,
               require_convergence=True):
        from scipy.stats import ks_2samp

        cnt = _times(
            "count", protocol_factory, n, scenario, budget,
            range(self.TRIALS), require_convergence=require_convergence,
        )
        idx = _times(
            "indexed", protocol_factory, n, scenario, budget,
            range(10_000, 10_000 + self.TRIALS),
            require_convergence=require_convergence,
        )
        idx_median = statistics.median(idx)
        median = statistics.median(cnt)
        assert abs(idx_median - median) / idx_median < 0.3, (
            idx_median, median,
        )
        statistic, p_value = ks_2samp(cnt, idx)
        assert p_value > 0.001, (statistic, p_value)

    def test_figure2_line_faultless(self):
        self._check(SimpleGlobalLine, 8, Scenario(), 500_000)

    def test_crash_with_notifications(self):
        self._check(
            FTGlobalLine, 10,
            Scenario(faults=("crash:count=2,at=50",)), 500_000,
        )

    def test_arrivals(self):
        self._check(
            SimpleGlobalLine, 6,
            Scenario(faults=("arrive:count=3,at=100",)), 500_000,
        )

    def test_churn(self):
        # Churn is unbounded, so runs are budget-bounded and compared on
        # the last output change inside the window.
        self._check(
            FTGlobalLine, 8,
            Scenario(faults=("churn:rate=0.0001",)), 100_000,
            require_convergence=False,
        )

    def test_edge_rate(self):
        self._check(
            SimpleGlobalLine, 8,
            Scenario(faults=("edge-rate:rate=0.0001",)), 100_000,
        )


# ----------------------------------------------------------------------
# Census round-trip properties
# ----------------------------------------------------------------------

@st.composite
def configurations(draw):
    states = draw(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=8)
    )
    n = len(states)
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    )
    return Configuration(
        states, [p for p, on in zip(pairs, mask) if on]
    )


class TestCensusRoundTrip:
    """Census <-> Configuration conservation (the reconstruction is
    census-faithful, not geometry-faithful — anonymity)."""

    @given(configurations())
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_is_census_identical(self, cfg):
        census = cfg.census()
        census.validate()
        assert census.population == cfg.n
        assert census.n_edges == cfg.n_active_edges
        rebuilt = Configuration.from_census(census)
        assert rebuilt.census() == census

    @given(
        configurations(),
        st.lists(
            st.tuples(st.sampled_from("mkd"), st.integers(0, 10**6)),
            max_size=6,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_mutations_conserve_the_census_totals(self, cfg, ops):
        # m: move a node to a fresh state, k: add a node (arrival),
        # d: mark a node DEAD (the crash/revive census bookkeeping).
        for op, pick in ops:
            if op == "k":
                cfg.add_node("a")
            else:
                u = pick % cfg.n
                cfg.set_state(u, DEAD if op == "d" else "z")
        census = cfg.census()
        assert census.population == cfg.n
        assert sum(
            c for s, c in census.counts.items() if s != DEAD
        ) == cfg.n - census.counts.get(DEAD, 0)
        assert census.n_edges == cfg.n_active_edges
        assert Configuration.from_census(census).census() == census

    @given(configurations())
    # Complete on a:3, b:2: the capped expectations floor to 8 of 10
    # edges and only the a-b class has room for the other two, more
    # than the one extra edge per class a single largest-remainder pass
    # hands out.
    @example(Configuration(
        ["a", "a", "a", "b", "b"], itertools.combinations(range(5), 2)
    ))
    @settings(max_examples=80, deadline=None)
    def test_derive_edge_census_conserves_totals(self, cfg):
        census = cfg.census()
        counts = dict(census.counts)
        ends: dict = {}
        for (a, b), e in census.edges.items():
            ends[a] = ends.get(a, 0) + e
            ends[b] = ends.get(b, 0) + e
        derived = derive_edge_census(counts, ends, census.n_edges)
        assert sum(derived.values()) == census.n_edges
        for (a, b), e in derived.items():
            assert (a, b) == census_pair_key(a, b)
            assert 0 <= e <= census.class_pairs(a, b)

    @given(
        st.dictionaries(
            st.sampled_from("abc"), st.integers(0, 20),
            min_size=1, max_size=3,
        ),
        st.integers(0, 60),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_census_sample_states_is_hypergeometric_shaped(
        self, counts, k, seed
    ):
        total = sum(counts.values())
        rng = random.Random(seed)
        if k > total:
            with pytest.raises(SimulationError):
                census_sample_states(counts, k, rng)
            return
        drawn = census_sample_states(counts, k, rng)
        assert sum(drawn.values()) == k
        for s, c in drawn.items():
            assert 0 < c <= counts[s]
