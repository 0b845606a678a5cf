"""Tests for the TM-on-a-line protocol (Figure 5 mechanics), including a
hypothesis property test: agent-line execution == direct execution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.core.simulator import IndexedSimulator
from repro.tm import (
    BLANK,
    LineMachineProtocol,
    even_edges_machine,
    run_machine_on_line,
    zigzag_nonempty_machine,
)
from repro.tm.line_machine import MARK_L, MARK_R, TRAIL, head_of
from repro.tm.programs import (
    count_population_machine,
    counting_tape,
    read_counter,
)


class TestSetupValidation:
    def test_rejects_single_cell(self):
        with pytest.raises(SimulationError):
            LineMachineProtocol(even_edges_machine(), ["0"])

    def test_rejects_bad_head_position(self):
        with pytest.raises(SimulationError):
            LineMachineProtocol(even_edges_machine(), ["0", "1"], head_at=5)

    def test_initial_line_shape(self):
        protocol = LineMachineProtocol(even_edges_machine(), list("0101"))
        config = protocol.initial_configuration(4)
        assert config.n_active_edges == 3
        assert config.degree(0) == 1 and config.degree(3) == 1


class TestVerdicts:
    def test_accepting_run(self):
        machine = even_edges_machine()
        result, run, protocol = run_machine_on_line(
            machine, ["1", "1", BLANK], seed=0
        )
        assert result.accepted
        assert protocol.verdict(run.config) == "accept"

    def test_rejecting_run(self):
        machine = even_edges_machine()
        result, run, protocol = run_machine_on_line(
            machine, ["1", "0", BLANK], seed=0
        )
        assert not result.accepted
        assert protocol.verdict(run.config) == "reject"

    def test_verdict_none_before_halt(self):
        protocol = LineMachineProtocol(even_edges_machine(), list("01") + [BLANK])
        config = protocol.initial_configuration(3)
        assert protocol.verdict(config) is None
        with pytest.raises(Exception):
            protocol.read_result(config)


class TestMarkInvariant:
    """Figure 5: once the TM runs, nodes left of the head carry l marks
    and nodes right of it r marks."""

    def test_marks_partition_around_head(self):
        machine = zigzag_nonempty_machine()
        tape = list("00100") + [BLANK]
        protocol = LineMachineProtocol(machine, tape, head_at=len(tape) - 1)
        sim = IndexedSimulator(seed=3)
        from repro.core.trace import Trace

        snaps = Trace(snapshot_predicate=lambda step, cfg: True)
        result = sim.run(protocol, len(tape), None, trace=snaps)
        assert result.converged
        checked = 0
        for _, config in snaps.snapshots:
            head_nodes = [
                u for u in range(config.n) if head_of(config.state(u))
            ]
            if len(head_nodes) != 1:
                continue
            head = head_nodes[0]
            phase = head_of(config.state(head))[0]
            if phase not in ("tm", "halt"):
                continue
            # The line is laid out 0..n-1; head started at n-1 so node 0
            # is the left end.
            for u in range(config.n):
                if u == head:
                    continue
                mark = config.state(u)[1]
                if u < head:
                    assert mark == MARK_L, (u, head, mark)
                else:
                    assert mark == MARK_R, (u, head, mark)
            checked += 1
        assert checked > 0

    def test_wander_leaves_trail(self):
        machine = even_edges_machine()
        tape = list("0000") + [BLANK]
        protocol = LineMachineProtocol(machine, tape, head_at=2)
        config = protocol.initial_configuration(5)
        # drive one wander move by hand via the protocol rules
        import random

        from repro.core.simulator import apply_interaction

        rng = random.Random(0)
        result = apply_interaction(protocol, config, 2, 3, rng)
        assert result is not None
        assert config.state(2)[1] == TRAIL
        assert head_of(config.state(3)) is not None


class TestAgainstDirectExecution:
    @settings(max_examples=25, deadline=None)
    @given(
        bits=st.lists(st.sampled_from("01"), min_size=1, max_size=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_line_run_equals_direct_run(self, bits, seed):
        machine = even_edges_machine()
        tape = bits + [BLANK]
        direct = machine.accepts(list(tape))
        lined, _, _ = run_machine_on_line(machine, tape, seed=seed)
        assert lined.accepted == direct

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_interior_start_still_halts_correctly(self, seed):
        # palindromic input: the wander phase may reverse the tape, so use
        # an orientation-invariant input and compare against a direct run.
        machine = even_edges_machine()
        tape = ["1", "0", BLANK, "0", "1"]  # palindrome with a terminator
        direct = machine.accepts(list(tape))
        lined, _, _ = run_machine_on_line(machine, tape, head_at=2, seed=seed)
        assert lined.accepted == direct


class TestCountingOnLine:
    @pytest.mark.parametrize("n", [4, 7, 11])
    def test_population_count_on_agents(self, n):
        machine = count_population_machine()
        result, run, _ = run_machine_on_line(
            machine, counting_tape(n), seed=n
        )
        assert result.accepted
        value, digits = read_counter(result.tape)
        consumed = result.tape.count("x")
        assert value in (consumed, consumed + 1)
        assert consumed + digits + 2 == n
