"""Tests for JSON serialization of configurations, traces and results."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configuration import Configuration
from repro.core.serialization import (
    SerializationError,
    configuration_from_dict,
    configuration_to_dict,
    decode_state,
    dump_configuration,
    encode_state,
    event_from_dict,
    event_to_dict,
    load_configuration,
    parallel_time,
    run_result_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from repro.core.simulator import IndexedSimulator
from repro.core.trace import Event, Trace
from repro.protocols import GlobalStar


# recursive state strategy: strings, ints, nested tuples
states_strategy = st.recursive(
    st.one_of(st.text(max_size=6), st.integers(-5, 5), st.booleans()),
    lambda children: st.tuples(children, children),
    max_leaves=6,
)


class TestStateCodec:
    @settings(max_examples=80, deadline=None)
    @given(state=states_strategy)
    def test_roundtrip(self, state):
        encoded = encode_state(state)
        json.dumps(encoded)  # must be JSON-safe
        assert decode_state(encoded) == state

    def test_unserializable_rejected(self):
        with pytest.raises(SerializationError):
            encode_state(object())

    def test_unknown_payload_rejected(self):
        with pytest.raises(SerializationError):
            decode_state({"weird": 1})


class TestConfigurationRoundtrip:
    def test_simple(self):
        config = Configuration(["a", ("b", 1), "c"], [(0, 1), (1, 2)])
        clone = configuration_from_dict(configuration_to_dict(config))
        assert clone == config

    def test_file_roundtrip(self, tmp_path):
        config = Configuration(["x", "y"], [(0, 1)])
        path = tmp_path / "config.json"
        dump_configuration(config, str(path))
        assert load_configuration(str(path)) == config

    def test_version_checked(self):
        with pytest.raises(SerializationError):
            configuration_from_dict({"version": 99, "states": [], "edges": []})

    def test_real_protocol_final_configuration(self):
        result = IndexedSimulator(seed=0).run(GlobalStar(), 10, None)
        clone = configuration_from_dict(
            configuration_to_dict(result.config)
        )
        assert clone == result.config


class TestTraceRoundtrip:
    def test_events_and_snapshots(self):
        trace = Trace(snapshot_predicate=lambda step, cfg: step == 1)
        config = Configuration(["c", "p"], [(0, 1)])
        trace.record(Event(1, 0, 1, "c", "c", "c", "p", 0, 1), config)
        clone = trace_from_dict(trace_to_dict(trace))
        assert len(clone.events) == 1
        assert clone.events[0] == trace.events[0]
        assert clone.snapshots[0][0] == 1
        assert clone.snapshots[0][1] == config

    def test_event_roundtrip_with_tuple_states(self):
        event = Event(5, 1, 2, ("U", "idle"), ("U", "sel"), "x", "y", 0, 1)
        assert event_from_dict(event_to_dict(event)) == event

    def test_trace_version_checked(self):
        with pytest.raises(SerializationError):
            trace_from_dict({"version": 0, "events": [], "snapshots": []})


class TestRunResult:
    def test_summary_is_json_safe(self):
        result = IndexedSimulator(seed=1).run(GlobalStar(), 8, None)
        payload = run_result_to_dict(result)
        text = json.dumps(payload)
        parsed = json.loads(text)
        assert parsed["converged"] is True
        assert parsed["steps"] == result.steps
        restored = configuration_from_dict(parsed["configuration"])
        assert restored == result.config


class TestParallelTime:
    def test_footnote5_conversion(self):
        assert parallel_time(1000, 10) == 100.0

    def test_invalid_population(self):
        with pytest.raises(SerializationError):
            parallel_time(10, 0)
