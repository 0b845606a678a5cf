"""Content-addressed result keys: ``(trial spec, code version) -> sha256``.

Per-trial records have been a deterministic function of their frozen
trial spec since the declarative runner landed — the only other input a
record depends on is the *code* that executes it.  This module turns
that observation into a cache key:

* the **spec half** is the canonical JSON of the trial's
  :func:`key_payload`, dumped with sorted keys and no whitespace, so
  construction order and dict insertion order never leak into the key;
* the **code half** is :func:`code_digest` — the protocol's transition
  behavior (rule table / class source / notification hooks, via
  :func:`repro.verify.cache.protocol_behavior_parts`) plus
  :data:`SCHEMA_VERSION`, the engine/serialization schema version.

Editing one protocol therefore invalidates exactly that protocol's
cells; bumping :data:`SCHEMA_VERSION` (an engine-semantics or record
encoding change) invalidates everything.  Keys are stable across
processes and Python hash randomization: every ingredient is sorted or
canonicalized before hashing.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.protocols import registry
from repro.verify.cache import protocol_behavior_parts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.runner import TrialSpec

#: Engine/serialization schema version baked into every key.  Bump when
#: engine semantics change in a way that alters records for an unchanged
#: spec (e.g. a different geometric-skip law) or when the record
#: encodings of :mod:`repro.core.serialization` change incompatibly —
#: every cached cell is then a miss, by construction.
SCHEMA_VERSION = 1

#: The canonical JSON text of a dict: sorted keys, no whitespace.  Keys
#: hash it and the result store writes its entries in it.  One shared
#: encoder: ``json.dumps`` with these options builds a new one per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: canonical protocol spec -> code digest (computing one walks the class
#: source; a sweep asks thousands of times for the same protocol).
_DIGEST_CACHE: dict[str, str] = {}


def clear_digest_cache() -> None:
    """Forget memoized code digests (tests that mutate protocols or
    :data:`SCHEMA_VERSION` call this; normal runs never need to)."""
    _DIGEST_CACHE.clear()


def code_digest(protocol_spec: str) -> str:
    """The code-version digest of one protocol spec.

    Hashes the protocol's transition behavior together with
    :data:`SCHEMA_VERSION`; memoized per canonical spec.
    """
    spec = registry.canonical_spec(protocol_spec)
    cached = _DIGEST_CACHE.get(spec)
    if cached is not None:
        return cached
    protocol = registry.instantiate(spec)
    digest = behavior_digest(protocol)
    _DIGEST_CACHE[spec] = digest
    return digest


def behavior_digest(protocol) -> str:
    """The code-version digest of an already-instantiated protocol
    (uncached; :func:`code_digest` is the spec-string front door)."""
    parts = [
        f"repro-service-schema-v{SCHEMA_VERSION}",
        protocol.name,
        *protocol_behavior_parts(protocol),
    ]
    blob = "\x00".join(parts).encode("utf-8", errors="replace")
    return hashlib.sha256(blob).hexdigest()


def canonical_payload(spec_dict: dict) -> str:
    """The canonical JSON byte string of a trial payload dict."""
    return canonical_json(spec_dict)


def key_payload(trial: "TrialSpec") -> dict:
    """The payload a trial's key hashes.

    Both layouts are frozen formats, spelled out field by field rather
    than derived from :class:`~repro.analysis.runner.TrialSpec`, so that
    a new trial field can never move an existing key.  A sweep trial
    writes ``kind: trial``; a robustness trial (one with a ``load``)
    writes ``kind: robustness`` with the family's raw ``fault`` string
    and the scheduler instead of the scenario, so the two key spaces
    never collide.
    """
    if trial.kind == "trial":
        scenario = trial.scenario
        return {
            "version": 1,
            "kind": "trial",
            "protocol": trial.protocol,
            "n": trial.n,
            "trial": trial.trial,
            "seed": trial.seed,
            "engine": trial.engine,
            "measure": trial.measure,
            "max_steps": trial.max_steps,
            "check_interval": trial.check_interval,
            "scenario": {
                "scheduler": scenario.scheduler,
                "faults": list(scenario.faults),
                "init": scenario.init,
            },
        }
    return {
        "version": 1,
        "kind": "robustness",
        "protocol": trial.protocol,
        "n": trial.n,
        "load": trial.load,
        "trial": trial.trial,
        "seed": trial.seed,
        "fault": trial.fault,
        "scheduler": trial.scenario.scheduler,
        "engine": trial.engine,
        "measure": trial.measure,
        "max_steps": trial.max_steps,
        "check_interval": trial.check_interval,
    }


def trial_key(trial: "TrialSpec", *, code_version: str | None = None) -> str:
    """The content-addressed result key of one trial."""
    if code_version is None:
        code_version = code_digest(trial.protocol)
    payload = canonical_payload(key_payload(trial))
    return hashlib.sha256(
        f"{payload}\x00{code_version}".encode()
    ).hexdigest()
