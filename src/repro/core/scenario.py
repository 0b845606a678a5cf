"""Scenarios: the environment axes of an experiment, as one value.

The paper proves correctness under *every* fair scheduler (Section 3.1);
the follow-up fault-tolerance line (Michail, Spirakis & Theofilatos
2019) and the NETCS simulator make adversarial scheduling and faults
the primary experimental axes.  A :class:`Scenario` bundles the three
environment axes — all as canonical registry spec strings, so the whole
object is a hashable, picklable, JSON-safe value:

* ``scheduler`` — a :data:`repro.core.scheduler.SCHEDULERS` spec
  (``"uniform"``, ``"round-robin"``, ``"laggard:bias=0.9,lagged=0..4"``);
* ``faults`` — zero or more :data:`repro.core.faults.FAULTS` specs
  (``"crash:at=0,count=2"``, ``"edge-drop:rate=0.001"``), composed;
* ``init`` — an initial-configuration override from :data:`INITS`
  (``""`` keeps the protocol's own initial configuration).

The default scenario (``Scenario()``) is exactly the seed behavior:
uniform random scheduler, no faults, protocol-default initial
configuration — specs without a scenario run bit-identically to the
pre-scenario code paths.

Every axis is canonicalized (and thereby validated) on construction:

>>> from repro.core.scenario import Scenario
>>> scenario = Scenario(scheduler="rr", faults=("crash-stop:count=2",))
>>> scenario.scheduler, scenario.faults
('round-robin', ('crash:at=0,count=2',))
>>> scenario.is_default, Scenario().is_default
(False, True)

Engine routing
--------------
Engines declare what they can run via ``supports(scenario)``:
the event-driven engines (``indexed``, ``count``) require the
uniform random scheduler (their geometric skips encode its law), while
the ``sequential`` reference engine accepts every scenario but needs a
finite step budget.  :func:`resolve_engine` applies that capability
check and falls back to ``sequential`` (with a warning) instead of
letting a uniform-only fast path silently misrepresent a non-uniform
scheduler; :func:`repro.core.simulator.make_engine` then builds the
resolved engine for the scenario.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar, TypeVar

from repro.core.configuration import Configuration
from repro.core.errors import SimulationError
from repro.core.faults import FAULTS, FaultModel
from repro.core.graphs import graph_spec, named_graph
from repro.core.params import Param, SpecRegistry
from repro.core.protocol import Protocol
from repro.core.scheduler import SCHEDULERS, Scheduler

#: Canonical name of the default (paper) scheduler.
DEFAULT_SCHEDULER = "uniform"

#: Registry of initial-configuration overrides.
INITS = SpecRegistry("initial configuration")

_C = TypeVar("_C", bound=type)


def register_init(
    name: str,
    *,
    params: tuple[Param, ...] = (),
    description: str = "",
    aliases: tuple[str, ...] = (),
) -> Callable[[_C], _C]:
    """Class decorator: register an initial-configuration generator."""
    return INITS.register(
        name, params=params, description=description, aliases=aliases
    )


@register_init(
    "uniform",
    params=(Param("state", str, help="state every node starts in"),),
    description="every node in the given state, no active edges",
)
class UniformInit:
    """All nodes in one (string) state — override the protocol's ``q0``."""

    def __init__(self, state: str) -> None:
        self.state = state

    def build(self, protocol: Protocol, n: int) -> Configuration:
        return Configuration.uniform(n, self.state)


@register_init(
    "doped",
    params=(
        Param("state", str, help="state of the doped nodes"),
        Param("count", int, default=1, minimum=1,
              help="how many nodes start doped"),
    ),
    description="protocol default, with `count` nodes doped to a state",
)
class DopedInit:
    """The protocol's own initial configuration with the first ``count``
    nodes overridden to ``state`` (e.g. a pre-elected leader)."""

    def __init__(self, state: str, count: int = 1) -> None:
        self.state = state
        self.count = count

    def build(self, protocol: Protocol, n: int) -> Configuration:
        if self.count > n:
            raise SimulationError(
                f"cannot dope {self.count} nodes in a population of {n}"
            )
        config = protocol.initial_configuration(n)
        for u in range(self.count):
            config.set_state(u, self.state)
        return config


@register_init(
    "graph",
    params=(
        Param("graph", graph_spec,
              help="named graph pre-activated on nodes 0..k-1"),
    ),
    description="protocol default states over a pre-built named topology",
)
class GraphInit:
    """The protocol's initial states with the edges of a named graph
    (see :func:`repro.core.graphs.named_graph`) already active on nodes
    ``0 .. k-1`` — restabilization from a non-empty starting network."""

    def __init__(self, graph: str) -> None:
        self.graph = graph_spec(graph)

    def build(self, protocol: Protocol, n: int) -> Configuration:
        topology = named_graph(self.graph)
        if topology.number_of_nodes() > n:
            raise SimulationError(
                f"init graph {self.graph!r} has "
                f"{topology.number_of_nodes()} nodes but the population "
                f"is {n}"
            )
        config = protocol.initial_configuration(n)
        for u, v in topology.edges():
            config.set_edge(int(u), int(v), 1)
        return config


# ----------------------------------------------------------------------
# The scenario value object
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """The environment of a run: scheduler, faults, initial configuration.

    Every axis is stored as a canonical registry spec string (validated
    and normalized on construction), so scenarios compare, hash,
    pickle and JSON-serialize as plain values.
    """

    scheduler: str = DEFAULT_SCHEDULER
    faults: tuple[str, ...] = ()
    init: str = ""

    #: A payload may leave any axis out (it keeps its default).
    OPTIONAL_FIELDS: ClassVar[tuple[str, ...]] = (
        "scheduler", "faults", "init",
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "scheduler", SCHEDULERS.canonical(self.scheduler)
        )
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", (self.faults,))
        object.__setattr__(
            self,
            "faults",
            tuple(FAULTS.canonical(spec) for spec in self.faults),
        )
        if self.init:
            object.__setattr__(self, "init", INITS.canonical(self.init))

    # ------------------------------------------------------------------
    @property
    def is_default(self) -> bool:
        """True for the seed behavior: uniform scheduler, no faults,
        protocol-default initial configuration."""
        return (
            self.scheduler == DEFAULT_SCHEDULER
            and not self.faults
            and not self.init
        )

    @property
    def uses_uniform_scheduler(self) -> bool:
        return self.scheduler == DEFAULT_SCHEDULER

    @property
    def has_unbounded_faults(self) -> bool:
        """True when a sustained fault model (e.g. ``edge-drop``) may
        perturb the run forever — such runs need a finite step budget."""
        return any(not model.bounded for model in self.make_faults())

    def describe(self) -> str:
        """One-line human-readable summary.

        >>> Scenario(faults="edge-drop:rate=0.01").describe()
        'scheduler=uniform faults=edge-drop:rate=0.01'
        """
        parts = [f"scheduler={self.scheduler}"]
        if self.faults:
            parts.append(f"faults={';'.join(self.faults)}")
        if self.init:
            parts.append(f"init={self.init}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def make_scheduler(self) -> Scheduler:
        return SCHEDULERS.instantiate(self.scheduler)

    def make_faults(self) -> tuple[FaultModel, ...]:
        return tuple(FAULTS.instantiate(spec) for spec in self.faults)

    def build_initial(
        self, protocol: Protocol, n: int
    ) -> Configuration | None:
        """The overridden initial configuration, or ``None`` for the
        protocol default (engines then build it themselves)."""
        if not self.init:
            return None
        return INITS.instantiate(self.init).build(protocol, n)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        from repro.core.serialization import encode

        return encode(self)

    @staticmethod
    def from_dict(payload: dict | None) -> "Scenario":
        """Inverse of :meth:`to_dict`; ``None`` (e.g. a spec payload
        predating the scenario axis) decodes to the default scenario."""
        from repro.core.serialization import decode

        if payload is None:
            return DEFAULT_SCENARIO
        scenario: Scenario = decode(Scenario, payload)
        return scenario


#: The seed behavior (shared instance; Scenario is immutable).
DEFAULT_SCENARIO = Scenario()


# ----------------------------------------------------------------------
# Capability-aware engine routing
# ----------------------------------------------------------------------

def resolve_engine(
    engine: str, scenario: Scenario | None, *, warn: bool = True
) -> str:
    """The engine that will actually run ``scenario``.

    Returns ``engine`` itself when it supports the scenario, otherwise
    falls back to the reference ``sequential`` engine (optionally
    warning) — never silently runs a non-uniform scheduler through a
    uniform-only fast path.

    >>> resolve_engine("indexed", Scenario(faults="crash:count=1"), warn=False)
    'indexed'
    >>> resolve_engine("indexed", Scenario(scheduler="round-robin"), warn=False)
    'sequential'
    """
    from repro.core.simulator import engine_class

    if scenario is None or engine_class(engine).supports(scenario):
        return engine
    if warn:
        warnings.warn(
            f"engine {engine!r} does not support scenario "
            f"({scenario.describe()}); falling back to 'sequential' "
            "(requires a finite max_steps budget)",
            RuntimeWarning,
            stacklevel=3,
        )
    return "sequential"
