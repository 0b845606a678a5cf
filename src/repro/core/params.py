"""Shared parameter and spec-string machinery for the spec registries.

Three registries resolve compact spec strings into parameterized
objects: the protocol registry (:mod:`repro.protocols.registry`), the
scheduler registry (:mod:`repro.core.scheduler`) and the fault-model /
initial-configuration registries (:mod:`repro.core.faults`,
:mod:`repro.core.scenario`).  They all share the grammar

.. code-block:: text

    name                       # bare name, default params
    name:key=value,key=value   # explicit params, comma-separated

and the :class:`Param` declaration/coercion model, so a spec string is
one canonical, JSON-safe serialization of any registered object.  The
lighter registries instantiate :class:`SpecRegistry` directly; the
protocol registry subclasses it to add shorthand regexes (``3rc``) and
fill itself on first use.

A registry is a dict of named factories plus their declared
:class:`Param` s; :meth:`SpecRegistry.canonical` normalizes any
accepted spelling to one canonical string:

>>> from repro.core.params import Param, SpecRegistry
>>> registry = SpecRegistry("widget")
>>> @registry.register("blinker", params=(Param("period", int, default=2),),
...                    aliases=("blink",))
... class Blinker:
...     def __init__(self, period=2):
...         self.period = period
>>> registry.canonical("blink:period=5")
'blinker:period=5'
>>> registry.instantiate("blinker").period
2

Value types beyond ``int``/``float``/``str`` are plain callables with a
matching ``format`` function so coerced values render back to the exact
spec text they parsed from: :func:`node_set` (``"0..4+7"``) and
:func:`pair_list` (``"0-1+1-2"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.errors import ReproError


class SpecError(ReproError):
    """A spec string or parameter value could not be resolved."""


@dataclass(frozen=True)
class Param:
    """One declared constructor parameter of a registered factory.

    ``type`` is any callable coercing raw spec text (or an
    already-typed value) to the parameter's value; ``format`` renders a
    coerced value back to canonical spec text (``str`` when omitted).
    """

    name: str
    type: Callable[[Any], Any] = int
    default: Any = None
    minimum: int | None = None
    help: str = ""
    format: Callable[[Any], str] | None = None

    def coerce(self, raw: Any, *, error: type[SpecError] = SpecError) -> Any:
        try:
            value = self.type(raw)
        except (TypeError, ValueError):
            raise error(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {raw!r}"
            ) from None
        if self.minimum is not None and value < self.minimum:
            raise error(
                f"parameter {self.name!r} must be >= {self.minimum}, "
                f"got {value}"
            )
        return value

    def render(self, value: Any) -> str:
        """Canonical spec text of a coerced value."""
        return self.format(value) if self.format is not None else str(value)


def split_spec(
    spec: str, *, error: type[SpecError] = SpecError
) -> tuple[str, dict[str, str]]:
    """Split ``"name:k=v,k=v"`` into ``(name, raw params)``.

    >>> split_spec("crash:count=2,at=100")
    ('crash', {'count': '2', 'at': '100'})
    >>> split_spec("uniform")
    ('uniform', {})
    """
    name, _, paramtext = spec.partition(":")
    name = name.strip()
    given: dict[str, str] = {}
    if paramtext:
        for item in paramtext.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise error(
                    f"malformed parameter {item!r} in spec {spec!r} "
                    "(expected key=value)"
                )
            given[key.strip()] = value.strip()
    return name, given


def resolve_params(
    owner: str,
    declared: tuple[Param, ...],
    given: dict[str, Any],
    *,
    error: type[SpecError] = SpecError,
) -> dict[str, Any]:
    """Validate/coerce ``given`` against ``declared``, filling defaults;
    unknown or missing required parameters raise ``error``."""
    by_name = {p.name: p for p in declared}
    unknown = set(given) - set(by_name)
    if unknown:
        raise error(
            f"{owner} has no parameter(s) {sorted(unknown)}; "
            f"declared: {sorted(by_name) or 'none'}"
        )
    resolved: dict[str, Any] = {}
    for p in declared:
        if p.name in given:
            resolved[p.name] = p.coerce(given[p.name], error=error)
        elif p.default is not None:
            resolved[p.name] = p.default
        else:
            raise error(f"{owner} requires parameter {p.name!r}")
    return resolved


def format_spec(
    name: str, params: dict[str, Any], declared: tuple[Param, ...] = ()
) -> str:
    """Render ``name`` / ``name:k=v`` canonical spec text (sorted keys)."""
    if not params:
        return name
    by_name = {p.name: p for p in declared}
    parts = []
    for key in sorted(params):
        param = by_name.get(key)
        text = param.render(params[key]) if param else str(params[key])
        parts.append(f"{key}={text}")
    return f"{name}:{','.join(parts)}"


# ----------------------------------------------------------------------
# Extra value types (with canonical formatters)
# ----------------------------------------------------------------------

def node_set(raw: Any) -> frozenset[int]:
    """Coerce a node-set value: ``"0..4+7"`` (inclusive ranges joined by
    ``+``), a single int, or any iterable of ints.

    >>> sorted(node_set("0..2+7"))
    [0, 1, 2, 7]
    >>> node_set(3) == frozenset({3})
    True
    """
    if isinstance(raw, int):
        raw = (raw,)
    if not isinstance(raw, str):
        nodes = frozenset(int(x) for x in raw)
    else:
        out: set[int] = set()
        for part in raw.split("+"):
            part = part.strip()
            if not part:
                continue
            if ".." in part:
                lo_text, hi_text = part.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise ValueError(f"empty range {part!r}")
                out.update(range(lo, hi + 1))
            else:
                out.add(int(part))
        nodes = frozenset(out)
    if not nodes:
        raise ValueError("node set is empty")
    if min(nodes) < 0:
        raise ValueError(f"node ids must be >= 0, got {sorted(nodes)}")
    return nodes


def format_node_set(nodes: Iterable[int]) -> str:
    """Canonical text of a node set: sorted runs, ``"0..4+7"`` style.

    >>> format_node_set({7, 0, 1, 2})
    '0..2+7'
    """
    ordered = sorted(nodes)
    runs: list[tuple[int, int]] = []
    for u in ordered:
        if runs and u == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], u)
        else:
            runs.append((u, u))
    return "+".join(
        str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in runs
    )


def pair_list(raw: Any) -> tuple[tuple[int, int], ...]:
    """Coerce an ordered pair list: ``"0-1+1-2"`` or an iterable of
    2-sequences.  Orientation is preserved (rule resolution and symmetry
    breaking are orientation-sensitive).

    >>> pair_list("2-1+0-3")
    ((2, 1), (0, 3))
    """
    if isinstance(raw, str):
        items: list[tuple[int, int]] = []
        for part in raw.split("+"):
            part = part.strip()
            if not part:
                continue
            u_text, dash, v_text = part.partition("-")
            if not dash:
                raise ValueError(f"malformed pair {part!r} (expected u-v)")
            items.append((int(u_text), int(v_text)))
        pairs = tuple(items)
    else:
        pairs = tuple((int(u), int(v)) for u, v in raw)
    for u, v in pairs:
        if u == v:
            raise ValueError(f"pair ({u}, {v}) is a self-loop")
        if u < 0 or v < 0:
            raise ValueError(f"pair ({u}, {v}) has a negative node id")
    return pairs


def format_pair_list(pairs: Iterable[tuple[int, int]]) -> str:
    """Canonical text of an ordered pair list: ``"0-1+1-2"``.

    >>> format_pair_list([(0, 1), (1, 2)])
    '0-1+1-2'
    """
    return "+".join(f"{u}-{v}" for u, v in pairs)


# ----------------------------------------------------------------------
# The spec registry (protocols, schedulers, fault models, initial configs)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpecEntry:
    """Registry record for one registered factory."""

    name: str
    factory: Callable[..., Any]
    params: tuple[Param, ...] = ()
    description: str = ""
    aliases: tuple[str, ...] = ()

    def signature(self) -> str:
        """Render ``name(k=3)``-style parameter signature for listings."""
        if not self.params:
            return self.name
        inner = ", ".join(
            f"{p.name}={p.render(p.default)}" if p.default is not None
            else p.name
            for p in self.params
        )
        return f"{self.name}({inner})"


class SpecRegistry:
    """A name -> parameterized-factory registry over the shared spec
    grammar: exact names and aliases, populated at import.  Failed
    lookups and bad registrations raise :attr:`error`."""

    error: type[SpecError] = SpecError

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, SpecEntry] = {}
        self._aliases: dict[str, str] = {}

    def register(
        self,
        name: str,
        *,
        params: tuple[Param, ...] = (),
        description: str = "",
        aliases: tuple[str, ...] = (),
    ):
        """Decorator registering a class (or factory callable)."""

        def decorate(obj):
            self.add(
                SpecEntry(
                    name=name,
                    factory=obj,
                    params=tuple(params),
                    description=description,
                    aliases=tuple(aliases),
                )
            )
            return obj

        return decorate

    def add(self, entry: SpecEntry) -> None:
        for key in (entry.name, *entry.aliases):
            if key in self._entries or key in self._aliases:
                raise self.error(
                    f"{self.kind} name {key!r} already registered"
                )
        self._entries[entry.name] = entry
        for alias in entry.aliases:
            self._aliases[alias] = entry.name

    def available(self) -> list[SpecEntry]:
        return sorted(self._entries.values(), key=lambda e: e.name)

    def names(self) -> list[str]:
        return [entry.name for entry in self.available()]

    def get(self, name: str) -> SpecEntry:
        canonical = self._aliases.get(name, name)
        try:
            return self._entries[canonical]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; "
                f"choose from {', '.join(self.names())}"
            ) from None

    def lookup(self, spec: str) -> tuple[SpecEntry, dict[str, Any]]:
        """The entry a spec string names, with its raw (unresolved)
        parameter values."""
        name, given = split_spec(spec, error=self.error)
        return self.get(name), given

    def parse(self, spec: str) -> tuple[SpecEntry, dict[str, Any]]:
        """Parse a spec string into ``(entry, resolved params)``."""
        entry, given = self.lookup(spec)
        owner = f"{self.kind} {entry.name!r}"
        return entry, resolve_params(
            owner, entry.params, given, error=self.error
        )

    def canonical(self, spec: str) -> str:
        """Normalize a spec string (validates it as a side effect)."""
        entry, params = self.parse(spec)
        return format_spec(entry.name, params, entry.params)

    def instantiate(self, spec: str, **overrides: Any):
        """Build an instance from a spec string (plus overrides)."""
        entry, params = self.parse(spec)
        params.update(overrides)
        return entry.factory(**params)
