"""Cross-cutting consistency checks tying protocols to the paper's
analyses — the places where one result is proved *via* another.
"""

from __future__ import annotations

import statistics

import pytest

from repro.processes import (
    meet_everybody_expectation,
    one_way_epidemic_expectation,
)
from repro.protocols.bounds import (
    spanning_line_lower_bound,
    spanning_star_lower_bound,
)
from tests.conftest import trial_times

TRIALS = 40
N = 20


class TestTheorem1:
    """The spanning-network protocol *is* a node cover with edge
    activations: their convergence times must coincide run-for-run in
    distribution."""

    def test_spanning_equals_node_cover_in_mean(self):
        spanning = trial_times("spanning-network", N, TRIALS, measure="last_change")
        cover = trial_times("node-cover", N, TRIALS, measure="last_change")
        s_mean = statistics.fmean(spanning)
        c_mean = statistics.fmean(cover)
        assert abs(s_mean - c_mean) / c_mean < 0.25

    def test_identical_under_identical_seeds(self):
        """Same rule structure, same seeds -> same step counts."""
        spanning = trial_times("spanning-network", N, 10, measure="last_change")
        cover = trial_times("node-cover", N, 10, measure="last_change")
        assert spanning == cover


class TestTheorem6Via7:
    """The star's time is lower-bounded by the center's meet-everybody
    and the protocol is optimal: star time / meet-everybody time must be
    a modest constant."""

    def test_star_dominates_meet_everybody(self):
        star = statistics.fmean(trial_times("global-star", N, TRIALS))
        meet = meet_everybody_expectation(N)
        assert star > 0.8 * meet
        assert star < 6 * meet


class TestSection7Composition:
    """The leader-driven line is the meet-everybody process in disguise
    (the conclusions' Θ(n² log n) remark)."""

    def test_leader_line_tracks_meet_everybody(self):
        line = statistics.fmean(
            trial_times("leader-driven-line", N, TRIALS, measure="last_change")
        )
        exact = meet_everybody_expectation(N)
        assert abs(line - exact) / exact < 0.3

    def test_leader_line_beats_uniform_line_protocols(self):
        """With the leader handed for free, the line is built much faster
        than any uniform protocol manages from scratch."""
        with_leader = statistics.fmean(trial_times("leader-driven-line", N, 15))
        from_scratch = statistics.fmean(trial_times("simple-global-line", N, 15))
        assert with_leader < from_scratch


class TestLineBoundsBracketMeasurements:
    def test_fast_line_between_lower_bound_and_n4(self):
        measured = statistics.fmean(trial_times("fast-global-line", 24, 15))
        assert measured >= spanning_line_lower_bound(24)
        assert measured <= 24**4  # far under Simple's regime

    def test_star_bound_is_meet_everybody(self):
        assert spanning_star_lower_bound(N) == pytest.approx(
            meet_everybody_expectation(N)
        )


class TestEpidemicAsSpanningPrimitive:
    """Proposition 1 is the engine behind many arguments; sanity-check
    the constant (E = (n-1) H_{n-1}) at two sizes."""

    @pytest.mark.parametrize("n", [12, 30])
    def test_exact_constant(self, n):
        times = trial_times("one-way-epidemic", n, 80, measure="last_change")
        mean = statistics.fmean(times)
        exact = one_way_epidemic_expectation(n)
        assert abs(mean - exact) / exact < 0.15


class TestMeetEverybodyAsStarFloor:
    def test_every_star_run_exceeds_its_centers_meetings(self):
        """Pathwise: the star cannot finish before the eventual center
        has met everyone, so even the *minimum* star time across seeds
        should not collapse far below meet-everybody's minimum."""
        star_times = trial_times("global-star", 14, 30)
        meet_times = trial_times("meet-everybody", 14, 30, measure="last_change")
        assert min(star_times) > 0.3 * min(meet_times)
