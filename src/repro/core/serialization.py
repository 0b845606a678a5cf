"""JSON serialization of configurations, traces and run results, and of
the experiment layer's specs, trial records and results.

Lets long experiments checkpoint their populations and lets downstream
tools (plotters, external verifiers) consume executions without importing
the simulator.  States are arbitrary hashables in memory; on disk they are
encoded as tagged JSON (strings pass through, tuples become
``{"t": [...]}`` recursively), so every state used by the built-in
protocols round-trips exactly.  Specs, records and results share one
codec driven by their dataclass fields (:func:`encode` / :func:`decode`,
:func:`dump` / :func:`load`).
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from typing import Any, Callable, NamedTuple, Self
from typing import get_args, get_origin, get_type_hints

from repro.core.configuration import Configuration
from repro.core.errors import ReproError
from repro.core.simulator import RunResult
from repro.core.trace import Event, Trace


class SerializationError(ReproError):
    """A value could not be encoded to / decoded from JSON."""


def encode_state(state: Any) -> Any:
    """Encode a node state to a JSON-safe value."""
    if state is None or isinstance(state, (str, int, float, bool)):
        return state
    if isinstance(state, tuple):
        return {"t": [encode_state(part) for part in state]}
    raise SerializationError(f"cannot serialize state {state!r}")


def decode_state(payload: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    if isinstance(payload, dict):
        if set(payload) != {"t"}:
            raise SerializationError(f"unknown state payload {payload!r}")
        return tuple(decode_state(part) for part in payload["t"])
    return payload


# ----------------------------------------------------------------------
# Configurations
# ----------------------------------------------------------------------

def configuration_to_dict(config: Configuration) -> dict:
    return {
        "version": 1,
        "states": [encode_state(s) for s in config.states()],
        "edges": sorted(map(list, config.active_edges())),
    }


def configuration_from_dict(payload: dict) -> Configuration:
    if payload.get("version") != 1:
        raise SerializationError(
            f"unsupported configuration version {payload.get('version')!r}"
        )
    states = [decode_state(s) for s in payload["states"]]
    return Configuration(states, [tuple(e) for e in payload["edges"]])


def dump_configuration(config: Configuration, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(configuration_to_dict(config), handle)


def load_configuration(path: str) -> Configuration:
    with open(path) as handle:
        return configuration_from_dict(json.load(handle))


# ----------------------------------------------------------------------
# Traces and results
# ----------------------------------------------------------------------

def event_to_dict(event: Event) -> dict:
    return {
        "step": event.step,
        "u": event.u,
        "v": event.v,
        "u_before": encode_state(event.u_before),
        "u_after": encode_state(event.u_after),
        "v_before": encode_state(event.v_before),
        "v_after": encode_state(event.v_after),
        "edge_before": event.edge_before,
        "edge_after": event.edge_after,
    }


def event_from_dict(payload: dict) -> Event:
    return Event(
        step=payload["step"],
        u=payload["u"],
        v=payload["v"],
        u_before=decode_state(payload["u_before"]),
        u_after=decode_state(payload["u_after"]),
        v_before=decode_state(payload["v_before"]),
        v_after=decode_state(payload["v_after"]),
        edge_before=payload["edge_before"],
        edge_after=payload["edge_after"],
    )


def trace_to_dict(trace: Trace) -> dict:
    return {
        "version": 1,
        "events": [event_to_dict(e) for e in trace.events],
        "snapshots": [
            {"step": step, "configuration": configuration_to_dict(cfg)}
            for step, cfg in trace.snapshots
        ],
    }


def trace_from_dict(payload: dict) -> Trace:
    if payload.get("version") != 1:
        raise SerializationError(
            f"unsupported trace version {payload.get('version')!r}"
        )
    trace = Trace()
    trace.events = [event_from_dict(e) for e in payload["events"]]
    trace.snapshots = [
        (s["step"], configuration_from_dict(s["configuration"]))
        for s in payload["snapshots"]
    ]
    return trace


def run_result_to_dict(result: RunResult) -> dict:
    """Summary of a run (the trace, if any, is serialized separately)."""
    return {
        "version": 1,
        "converged": result.converged,
        "steps": result.steps,
        "effective_steps": result.effective_steps,
        "last_change_step": result.last_change_step,
        "last_output_change_step": result.last_output_change_step,
        "stop_reason": result.stop_reason,
        "configuration": configuration_to_dict(result.config),
    }


# ----------------------------------------------------------------------
# Specs, trial records and results: one codec, driven by the dataclass
# ----------------------------------------------------------------------
# Every experiment-layer value (ExperimentSpec, RobustnessSpec, Scenario,
# TrialRecord, SweepResult, RobustnessResult) is a frozen dataclass, and
# its payload maps each field name to its value in declaration order:
# tuples become lists, nested dataclasses nested payloads.  Two optional
# class attributes shape it:
#
# ``FORMAT_VERSION``  a ``"version"`` header, written first and checked on
#                     decode (specs and results carry one);
# ``OPTIONAL_FIELDS`` fields a payload may lack -- older payloads did not
#                     write them -- so decoding falls back to the class
#                     default; the encoder leaves one out when it is None.
#
# Every other field is required, including those with a class default.

class _Codec(NamedTuple):
    version: int | None
    names: tuple[str, ...]
    optional: frozenset[str]
    #: required fields the constructor would otherwise default silently
    #: (it rejects a payload lacking any of the others by itself)
    required: tuple[str, ...]
    #: ``(field, to JSON, from JSON)`` for tuple and dataclass fields
    converters: tuple[tuple[str, Callable, Callable], ...]


_CODECS: dict[type, _Codec] = {}


def _encode_each(values: Any) -> list:
    return [encode(value) for value in values]


def _decode_each(cls: type, payloads: Any) -> tuple:
    return tuple(decode(cls, payload) for payload in payloads)


def _codec(cls: type) -> _Codec:
    """``cls``'s field plan, worked out once per class (the hot paths
    look it up in :data:`_CODECS` first)."""
    hints = get_type_hints(cls)
    fields = dataclasses.fields(cls)
    optional = frozenset(getattr(cls, "OPTIONAL_FIELDS", ()))
    required = []
    converters: list[tuple[str, Callable, Callable]] = []
    for field in fields:
        name, hint = field.name, hints[field.name]
        has_default = (
            field.default is not dataclasses.MISSING
            or field.default_factory is not dataclasses.MISSING
        )
        if has_default and name not in optional:
            required.append(name)
        item = get_args(hint)[0] if get_origin(hint) is tuple else None
        if dataclasses.is_dataclass(hint):
            converters.append((name, encode, partial(decode, hint)))
        elif dataclasses.is_dataclass(item):
            converters.append(
                (name, _encode_each, partial(_decode_each, item))
            )
        elif item is not None:
            converters.append((name, list, tuple))
    codec = _CODECS[cls] = _Codec(
        getattr(cls, "FORMAT_VERSION", None),
        tuple(field.name for field in fields),
        optional,
        tuple(required),
        tuple(converters),
    )
    return codec


def encode(value: Any) -> dict:
    """The JSON payload of a spec, trial record or result."""
    cls = type(value)
    version, names, optional, _, converters = (
        _CODECS.get(cls) or _codec(cls)
    )
    payload: dict = {} if version is None else {"version": version}
    for name in names:
        field_value = getattr(value, name)
        if field_value is not None or name not in optional:
            payload[name] = field_value
    for name, to_json, _ in converters:
        field_value = payload.get(name)
        if field_value is not None:
            payload[name] = to_json(field_value)
    return payload


def decode(cls: type, payload: Any) -> Any:
    """Inverse of :func:`encode`: rebuild a ``cls`` value.

    Raises :class:`SerializationError` for a payload that is not an
    object, a wrong version header, a missing required field, an unknown
    field, or a value ``cls``'s constructor rejects with ``TypeError`` /
    ``ValueError``.
    """
    version, _, _, required, converters = _CODECS.get(cls) or _codec(cls)
    if not isinstance(payload, dict):
        raise SerializationError(
            f"{cls.__name__} payload must be an object, "
            f"got {type(payload).__name__}"
        )
    kwargs = dict(payload)
    if version is not None and kwargs.pop("version", None) != version:
        raise SerializationError(
            f"unsupported {cls.__name__} version {payload.get('version')!r}"
        )
    for field in required:
        if field not in kwargs:
            raise SerializationError(f"{cls.__name__} payload lacks {field!r}")
    try:
        for field, _, from_json in converters:
            if field in kwargs:
                kwargs[field] = from_json(kwargs[field])
        # An unknown field, or one without a default missing, is a
        # TypeError here.
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"bad {cls.__name__} payload: {exc}"
        ) from None


class Serializable:
    """Base of the spec and result dataclasses: their ``to_dict`` /
    ``from_dict`` and ``to_json`` / ``from_json`` go through
    :func:`encode` / :func:`decode`."""

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, payload: dict) -> Self:
        return decode(cls, payload)

    def to_json(self) -> str:
        return json.dumps(encode(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> Self:
        return decode(cls, json.loads(text))


def dump(value: Any, path: str) -> None:
    """Write :func:`encode` of ``value`` to ``path`` as indented JSON (the
    ``--out`` file format of ``repro-net sweep`` / ``robustness``)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(encode(value), handle, indent=2)
        handle.write("\n")


def load(cls: type, path: str) -> Any:
    """Inverse of :func:`dump`."""
    with open(path, encoding="utf-8") as handle:
        return decode(cls, json.load(handle))


def parallel_time(steps: int, n: int) -> float:
    """Convert sequential interaction steps to the paper's parallel-time
    estimate (footnote 5): Θ(n) interactions happen per parallel round in
    a well-mixed population, so parallel time ~ steps / n."""
    if n < 1:
        raise SerializationError(f"population must be positive, got {n}")
    return steps / n
