"""Tests for the visualization helpers and the CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.protocols import registry
from repro.core.configuration import Configuration
from repro.core.trace import Trace
from repro.viz import (
    adjacency_art,
    component_summary,
    configuration_to_dot,
    render_line,
    render_star,
    state_summary,
    trace_to_dot_frames,
)


@pytest.fixture
def star_config():
    return Configuration(
        ["c", "p", "p", "p"], [(0, 1), (0, 2), (0, 3)]
    )


class TestAsciiArt:
    def test_state_summary(self, star_config):
        text = state_summary(star_config)
        assert "p:3" in text and "c:1" in text

    def test_component_summary_detects_star(self, star_config):
        assert "star" in component_summary(star_config)

    def test_component_summary_shapes(self):
        config = Configuration(
            ["a"] * 7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]
        )
        text = component_summary(config)
        assert "line" in text and "cycle" in text and "isolated" in text

    def test_render_line(self):
        config = Configuration(["q1", "q2", "l"], [(0, 1), (1, 2)])
        assert render_line(config, [0, 1, 2]) == "(q1)--(q2)--(l)"

    def test_render_star(self, star_config):
        assert "3 rays" in render_star(star_config)

    def test_adjacency_art(self, star_config):
        art = adjacency_art(star_config)
        assert "#" in art
        big = Configuration.uniform(64, "a")
        assert "suppressed" in adjacency_art(big)


class TestDot:
    def test_configuration_to_dot(self, star_config):
        dot = configuration_to_dot(star_config, highlight_states={"c"})
        assert "graph net {" in dot
        assert "0 -- 1" in dot
        assert "lightblue" in dot

    def test_trace_frames(self, star_config):
        trace = Trace(snapshot_predicate=lambda step, cfg: True)
        from repro.core.trace import Event

        trace.record(Event(1, 0, 1, "c", "c", "c", "p", 0, 1), star_config)
        frames = trace_to_dot_frames(trace)
        assert len(frames) == 1 and "graph" in frames[0]


class TestFaultedRenderings:
    """DEAD nodes and mid-run population events through every renderer
    (previously only the clean path was exercised)."""

    @pytest.fixture
    def crashed_config(self):
        """A star whose center crashed: survivors isolated, center DEAD."""
        from repro.core.faults import DEAD

        config = Configuration(
            ["c", "p", "p", "p"], [(0, 1), (0, 2), (0, 3)]
        )
        for v in (1, 2, 3):
            config.set_edge(0, v, 0)
        config.set_state(0, DEAD)
        return config

    def test_state_summary_counts_dead_nodes(self, crashed_config):
        text = state_summary(crashed_config)
        assert "__dead__:1" in text and "p:3" in text

    def test_component_summary_renders_dead_isolates(self, crashed_config):
        text = component_summary(crashed_config)
        assert "isolated" in text and "__dead__" in text

    def test_dot_grays_out_dead_nodes(self, crashed_config):
        dot = configuration_to_dot(crashed_config, highlight_states={"p"})
        assert '0 [label="0:dead" style=filled fillcolor=gray80' in dot
        assert "lightblue" in dot  # highlights still apply to survivors
        assert "--" not in dot.replace("__dead__", "")  # no active edges

    def test_adjacency_art_after_crash(self, crashed_config):
        art = adjacency_art(crashed_config)
        assert "#" not in art  # every active edge died with the center

    def test_real_crash_run_renders_end_to_end(self):
        from repro.core.faults import DEAD
        from repro.core.scenario import Scenario
        from repro.core.simulator import run_to_convergence
        from repro.protocols import SimpleGlobalLine

        result = run_to_convergence(
            SimpleGlobalLine(), 10, seed=3, max_steps=2_000_000,
            scenario=Scenario(faults=("crash:count=2,at=100",)),
        )
        config = result.config
        assert sum(config.state(u) == DEAD for u in range(config.n)) == 2
        dot = configuration_to_dot(config)
        assert dot.count("fillcolor=gray80") == 2
        assert "__dead__:2" in state_summary(config)

    def test_population_growth_renders_mid_run_snapshots(self):
        from repro.core.scenario import Scenario
        from repro.core.simulator import run_to_convergence
        from repro.core.trace import Trace
        from repro.protocols import CycleCover

        trace = Trace(snapshot_predicate=lambda step, cfg: True)
        result = run_to_convergence(
            CycleCover(), 6, seed=1, max_steps=2_000_000,
            scenario=Scenario(faults=("arrive:count=3,at=400",)),
            trace=trace,
        )
        assert result.config.n == 9
        sizes = {config.n for _, config in trace.snapshots}
        assert 6 in sizes and 9 in sizes  # frames straddle the arrival
        frames = trace_to_dot_frames(trace)
        assert len(frames) == len(trace.snapshots)
        assert any(frame.count("label=") == 9 for frame in frames)
        # The grown population renders through the text pipeline too.
        assert len(state_summary(result.config)) > 0
        assert component_summary(result.config)


class TestCli:
    def test_list_command_renders_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "global-star" in out
        # Descriptions and parameter signatures come from the registry.
        assert "Theta(n^2 log n)" in out
        assert "c-cliques(c=3)" in out

    def test_describe_command(self, capsys):
        assert main(["describe", "k-regular-connected"]) == 0
        out = capsys.readouterr().out
        assert "k: int = 3" in out
        assert "states      : 8" in out

    def test_describe_unknown_protocol_fails_cleanly(self, capsys):
        assert main(["describe", "warp-drive"]) == 1
        err = capsys.readouterr().err
        assert "unknown protocol" in err

    def test_describe_scheduler_spec(self, capsys):
        assert main(["describe", "laggard:bias=0.8,lagged=0..2"]) == 0
        out = capsys.readouterr().out
        assert "kind        : scheduler" in out
        assert "canonical   : laggard:bias=0.8,lagged=0..2" in out
        assert "bias: float = 0.8" in out

    def test_describe_fault_spec(self, capsys):
        assert main(["describe", "recover:count=2,at=10,delay=5"]) == 0
        out = capsys.readouterr().out
        assert "kind        : fault model" in out
        assert "canonical   : recover:at=10,count=2,delay=5" in out

    def test_describe_init_spec(self, capsys):
        assert main(["describe", "doped:state=l"]) == 0
        out = capsys.readouterr().out
        assert "kind        : initial configuration" in out

    def test_describe_bare_name_with_required_params(self, capsys):
        # `list --faults` then `describe edge-drop` must work even
        # though `rate` has no default: the entry is described with the
        # parameter marked required, and no canonical line is shown.
        assert main(["describe", "edge-drop"]) == 0
        out = capsys.readouterr().out
        assert "kind        : fault model" in out
        assert "rate: probability (required)" in out
        assert "canonical" not in out

    def test_describe_unknown_param_on_known_fault(self, capsys):
        assert main(["describe", "crash:impact=9"]) == 1
        err = capsys.readouterr().err
        assert "no parameter(s) ['impact']" in err

    def test_describe_known_fault_with_bad_param_reports_fault_error(
        self, capsys
    ):
        assert main(["describe", "crash:count=abc"]) == 1
        err = capsys.readouterr().err
        assert "parameter 'count' expects int" in err

    def test_list_reports_closed_registry_coverage(self, capsys):
        # The PR-4-era "driver-run only" gap note is gone: the tm/ and
        # universal machines are first-class registry entries now.
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "not yet registered" not in out
        assert "registry coverage: complete" in out
        assert "line-tm" in out and "tm-decider" in out and "universal" in out

    def test_filtered_list_has_no_coverage_footer(self, capsys):
        assert main(["list", "--faults"]) == 0
        out = capsys.readouterr().out
        assert "arrive" in out and "churn" in out and "recover" in out
        assert "registry coverage" not in out

    def test_describe_line_tm_spec(self, capsys):
        assert main(["describe", "line-tm:program=count"]) == 0
        out = capsys.readouterr().out
        assert "class       : repro.tm.protocols.LineTM" in out
        assert "program: str = count" in out
        assert "named line program" in out

    def test_describe_universal_shorthand(self, capsys):
        assert main(["describe", "universal-connected"]) == 0
        out = capsys.readouterr().out
        assert "name        : universal" in out
        assert "family: str = connected" in out
        assert "shorthand   : universal-(?P<family>[a-z0-9-]+)" in out

    def test_describe_tm_decider_defaults(self, capsys):
        assert main(["describe", "tm-decider"]) == 0
        out = capsys.readouterr().out
        assert "machine: str = has-edge" in out
        assert "graph: graph_spec = ring-4" in out

    def test_describe_bad_line_program_reports_choices(self, capsys):
        assert main(["describe", "line-tm:program=warp"]) == 1
        err = capsys.readouterr().err
        assert "unknown line program 'warp'" in err
        assert "parity" in err

    def test_describe_bad_universal_family_reports_choices(self, capsys):
        assert main(["describe", "universal:family=warp"]) == 1
        err = capsys.readouterr().err
        assert "unknown graph language 'warp'" in err
        assert "even-edges" in err

    def test_describe_python_decider_rejected_for_tm_decider(self, capsys):
        # 'connected' exists as a decider but has no raw TM to put on a
        # line; the error must say so, not "unknown protocol".
        assert main(["describe", "tm-decider:machine=connected"]) == 1
        err = capsys.readouterr().err
        assert "unknown raw-TM decider 'connected'" in err

    def test_run_line_tm_through_the_cli(self, capsys):
        assert main(["run", "line-tm:program=parity", "-n", "16"]) == 0
        out = capsys.readouterr().out
        assert "Line-TM[parity]" in out
        assert "target reached: True" in out

    def test_conformance_command_passes_and_fails_cleanly(self, capsys):
        assert main(
            ["conformance", "global-star", "--checks", "registry,rule-table"]
        ) == 0
        out = capsys.readouterr().out
        assert "global-star" in out and "PASS" in out
        assert main(["conformance", "--checks", "no-such-check"]) == 1
        err = capsys.readouterr().err
        assert "unknown check" in err

    def test_conformance_list_checks(self, capsys):
        assert main(["conformance", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for name in ("registry", "rule-table", "engines", "faults"):
            assert name in out

    def test_run_command(self, capsys):
        assert main(["run", "global-star", "-n", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "target reached: True" in out

    def test_run_accepts_shorthand_spec(self, capsys):
        assert main(["run", "3-cliques", "-n", "9", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "3-Cliques" in out

    def test_sweep_command(self, capsys):
        assert main(
            ["sweep", "cycle-cover", "--sizes", "8,12,16", "--trials", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "fit:" in out

    def test_sweep_without_fit_still_writes_out(self, capsys, tmp_path):
        # An edge-free process never changes its output graph, so every
        # mean of the default measure is 0 and no power law fits.
        out_path = tmp_path / "sweep.json"
        assert main(
            [
                "sweep", "one-way-epidemic", "--sizes", "4,6,8", "--trials",
                "2", "--out", str(out_path),
            ]
        ) == 0
        assert "fit: skipped" in capsys.readouterr().out
        from repro.analysis.runner import SweepResult
        from repro.core.serialization import load

        result = load(SweepResult, str(out_path))
        assert len(result.records) == 6

    def test_sweep_jobs_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        assert main(
            [
                "sweep", "cycle-cover", "--sizes", "8,12", "--trials", "2",
                "--jobs", "2", "--out", str(out_path),
            ]
        ) == 0
        from repro.analysis.runner import SweepResult
        from repro.core.serialization import load

        result = load(SweepResult, str(out_path))
        assert result.spec.protocol == "cycle-cover"
        assert len(result.records) == 4

    def test_all_registered_protocols_instantiate(self):
        for entry in registry.available():
            protocol = entry.instantiate()
            assert protocol.name, entry.name
