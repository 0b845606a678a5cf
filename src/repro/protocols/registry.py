"""Central protocol registry: name -> parameterized protocol spec.

Every runnable protocol registers itself with the
:func:`register_protocol` class decorator, declaring its canonical name,
its constructor parameters (:class:`Param`), a one-line description, and
optionally a *shorthand* regex so compact spec strings like ``3rc`` or
``4-cliques`` parse into ``(name, params)`` pairs instead of needing
hand-maintained lambdas.

Spec-string grammar::

    simple-global-line              # bare name, default params
    k-regular-connected:k=3         # explicit params, comma-separated
    3rc                             # shorthand (regex with named groups)
    4-cliques                       # shorthand

Lookup order: exact canonical name or alias first, then shorthand
patterns.  The registry is populated lazily by importing the protocol
packages, so ``repro.protocols.registry`` has no import-time dependency
on the protocol modules themselves.

Typical use::

    from repro.protocols.registry import instantiate, parse_spec

    protocol = instantiate("3-cliques")
    entry, params = parse_spec("k-regular-connected:k=4")
"""

from __future__ import annotations

import functools
import importlib
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.params import (
    Param,
    SpecEntry,
    SpecError,
    SpecRegistry,
    format_spec,
    resolve_params,
    split_spec,
)

__all__ = [
    "PROTOCOLS",
    "Param",
    "ProtocolEntry",
    "RegistryError",
    "TARGETS",
    "available",
    "canonical_spec",
    "get",
    "instantiate",
    "name_for_factory",
    "names",
    "parse_spec",
    "register_protocol",
    "spec_for",
    "target_predicate",
]


# ----------------------------------------------------------------------
# Target predicates — declarable stable-network correctness metadata
# ----------------------------------------------------------------------

def _output_graph(protocol: Any, config: Any):
    return config.output_graph(protocol.output_states)


def _make_graph_target(predicate: Callable, **kwargs: Any) -> Callable:
    def target(protocol: Any, config: Any) -> bool:
        return bool(predicate(_output_graph(protocol, config), **kwargs))

    return target


def _self_reported(protocol: Any, config: Any) -> bool:
    return bool(protocol.target_reached(config))


def _targets() -> dict[str, Callable[[Any, Any], bool]]:
    # Imported lazily so this module keeps its no-protocol-code-at-load
    # property: loading it pulls in only the params machinery.
    from repro.core import graphs

    return {
        "spanning-line": _make_graph_target(graphs.is_spanning_line),
        "spanning-ring": _make_graph_target(graphs.is_spanning_ring),
        "spanning-star": _make_graph_target(graphs.is_spanning_star),
        "cycle-cover": _make_graph_target(graphs.is_cycle_cover, waste=2),
        "spanning-network": _make_graph_target(graphs.is_spanning_network),
        "self-reported": _self_reported,
    }


class _TargetRegistry(dict):
    """Lazily-populated ``name -> (protocol, config) -> bool`` mapping.

    The names are the values accepted by ``register_protocol(target=…)``;
    ``"self-reported"`` delegates to the protocol's own
    :meth:`~repro.core.protocol.Protocol.target_reached` for targets (like
    the redundancy-coded line) that no closed-form graph predicate
    captures.
    """

    _loaded = False

    def _ensure(self) -> None:
        if not self._loaded:
            self.update(_targets())
            type(self)._loaded = True

    def __missing__(self, key: str) -> Callable[[Any, Any], bool]:
        self._ensure()
        if key in self:
            return dict.__getitem__(self, key)
        raise RegistryError(
            f"unknown target predicate {key!r}; choose from "
            f"{', '.join(sorted(self))}"
        )

    def names(self) -> list[str]:
        self._ensure()
        return sorted(self)


#: target name -> callable(protocol, config) -> bool.
TARGETS = _TargetRegistry()


def target_predicate(protocol: Any) -> Callable[[Any], bool] | None:
    """The registered target predicate of an instantiated protocol, bound
    to the instance as a ``config -> bool`` callable.

    Resolution order: the registry entry's declared ``target`` name wins;
    a protocol whose class overrides ``target_reached`` but declares no
    name falls back to ``"self-reported"``; ``None`` means the protocol
    has no target notion (the verifier then skips target checks).
    """
    from repro.core.protocol import Protocol

    entry = _entry_of(protocol)
    target_name = entry.target if entry is not None else None
    if target_name is None:
        overridden = (
            type(protocol).target_reached is not Protocol.target_reached
        )
        if not overridden:
            return None
        target_name = "self-reported"
    predicate = TARGETS[target_name]

    def bound(config: Any) -> bool:
        return predicate(protocol, config)

    bound.target_name = target_name  # type: ignore[attr-defined]
    return bound


class RegistryError(SpecError):
    """Bad registration or failed protocol lookup."""


@dataclass(frozen=True)
class ProtocolEntry(SpecEntry):
    """Registry record for one protocol family."""

    shorthand: str | None = None
    #: Declared stable-network target: a :data:`TARGETS` key, or ``None``
    #: when the protocol has no target notion.  Consumed by the static
    #: verifier's model checker (``repro-net verify``).
    target: str | None = None
    _shorthand_re: re.Pattern | None = field(
        default=None, repr=False, compare=False
    )

    def resolve_params(self, given: dict[str, Any]) -> dict[str, Any]:
        """Validate/coerce ``given`` against the declared params, filling
        defaults; unknown or missing required parameters raise."""
        return resolve_params(
            f"protocol {self.name!r}", self.params, given,
            error=RegistryError,
        )

    def instantiate(self, **params: Any):
        return self.factory(**self.resolve_params(params))


#: Modules whose import populates the registry.  Kept as dotted names so
#: this module never imports protocol code at load time (the protocol
#: modules import *us* for the decorator).
_PROTOCOL_MODULES = (
    "repro.protocols",
    "repro.generic.linear_waste",
    "repro.generic.universal",
    "repro.processes",
    "repro.tm.protocols",
)

_populated = False


def ensure_populated() -> None:
    """Import the protocol packages so their decorators run.

    The flag is only set once every import succeeded, so a failing
    protocol module keeps raising its real ImportError on every lookup
    instead of leaving a silently half-populated registry.
    """
    global _populated
    if _populated:
        return
    for module in _PROTOCOL_MODULES:
        importlib.import_module(module)
    _populated = True


class _ProtocolRegistry(SpecRegistry):
    """The spec registry plus shorthand regexes, filled on first use."""

    error = RegistryError

    def available(self) -> list[SpecEntry]:
        ensure_populated()
        return super().available()

    def get(self, name: str) -> SpecEntry:
        ensure_populated()
        return super().get(name)

    def lookup(self, spec: str) -> tuple[SpecEntry, dict[str, Any]]:
        """Exact names and aliases win; shorthands are tried after."""
        ensure_populated()
        name, given = split_spec(spec, error=RegistryError)
        canonical = self._aliases.get(name, name)
        if canonical in self._entries:
            return self._entries[canonical], given
        if not given:
            for entry in self._entries.values():
                if entry._shorthand_re is None:
                    continue
                match = entry._shorthand_re.fullmatch(name)
                if match:
                    return entry, match.groupdict()
        raise RegistryError(
            f"unknown protocol spec {spec!r}; choose from "
            f"{', '.join(self.names())} "
            "(shorthands like '3rc' or '4-cliques' also work)"
        )


#: Every class registered with :func:`register_protocol`.
PROTOCOLS = _ProtocolRegistry("protocol")

# ``parse_spec`` maps ``name``, ``name:k=3,c=2`` or a shorthand (``3rc``)
# to ``(entry, resolved params)``; ``canonical_spec`` renders one
# ``name:k=3`` form for every spelling (``3rc`` and
# ``k-regular-connected:k=3``), the key for seed derivation and
# serialized experiment specs.
available, names, get = PROTOCOLS.available, PROTOCOLS.names, PROTOCOLS.get
parse_spec, canonical_spec = PROTOCOLS.parse, PROTOCOLS.canonical


def register_protocol(
    name: str,
    *,
    params: tuple[Param, ...] = (),
    description: str = "",
    aliases: tuple[str, ...] = (),
    shorthand: str | None = None,
    target: str | None = None,
):
    """Class decorator: register ``cls`` under ``name`` in the global
    protocol registry.

    ``shorthand`` is a full-match regex whose named groups are parameter
    values (e.g. ``r"(?P<k>\\d+)rc"`` lets ``3rc`` parse as ``k=3``).
    ``target`` names the protocol's stable-network correctness predicate
    (a :data:`TARGETS` key such as ``"spanning-line"``); it becomes
    checkable metadata for the static verifier.  Duplicate canonical
    names, aliases, or alias/name collisions raise :class:`RegistryError`
    at import time.
    """
    if target is not None and target not in TARGETS.names():
        raise RegistryError(
            f"protocol {name!r} declares unknown target {target!r}; "
            f"choose from {', '.join(TARGETS.names())}"
        )

    def decorate(cls):
        PROTOCOLS.add(ProtocolEntry(
            name=name,
            factory=cls,
            params=params,
            description=description,
            aliases=aliases,
            shorthand=shorthand,
            target=target,
            _shorthand_re=re.compile(shorthand) if shorthand else None,
        ))
        return cls

    return decorate


def _entry_of(protocol: Any) -> Any:
    """The registry entry whose factory is exactly ``type(protocol)``."""
    for entry in available():
        if type(protocol) is entry.factory:
            return entry
    return None


def name_for_factory(factory: Any) -> str | None:
    """Canonical name of a registered *parameterless* factory class.

    Returns ``None`` for unregistered callables and for parameterized
    entries (a bare class does not pin its parameters down).
    """
    for entry in available():
        if factory is entry.factory and not entry.params:
            return entry.name
    return None


def spec_for(protocol: Any) -> str | None:
    """Canonical spec string of an instantiated protocol, or ``None``.

    Reverse lookup by exact class; parameter values are read back off the
    instance (registered classes store each declared param as an
    attribute of the same name).  Lets factory-based callers share seed
    derivation with spec-based ones.
    """
    entry = _entry_of(protocol)
    if entry is None:
        return None
    params = {p.name: getattr(protocol, p.name) for p in entry.params}
    if any(value is None for value in params.values()):
        # The instance does not pin a declared param down (e.g. it was
        # built from a raw value the param cannot render).
        return None
    return format_spec(entry.name, params, entry.params)


def instantiate(spec: str, **overrides: Any):
    """Build a protocol instance from a spec string (plus overrides)."""
    entry, params = parse_spec(spec)
    params.update(overrides)
    return entry.instantiate(**params)


#: How many protocol instances :func:`shared` keeps (least recently used
#: out first).  It must be no smaller than the cycle of specs a client
#: repeats: a service client cycling through eleven protocols would
#: miss on every call under an LRU of ten.  Each instance holds at most
#: one compiled table: rule memos of at most |Q|^2 entries plus plan
#: memos capped at ``indexing._PLAN_CAP`` cells of visit orders and as
#: many of keys (~260 kB), so ~8 MB of plans at worst.
SHARED_INSTANCES = 32


@functools.lru_cache(maxsize=SHARED_INSTANCES)
def shared(spec: str):
    """The process's reusable instance of a canonical spec string.

    Trial runners take their protocol from here, so every trial of one
    spec compiles it once and shares its rule table (see
    :meth:`~repro.core.protocol.Protocol.compile`).  No protocol keeps
    per-run state on its instance, so reuse changes no record.  Callers
    must not mutate the instance."""
    return instantiate(spec)
