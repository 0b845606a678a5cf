"""Fair interaction schedulers — paper Section 3.1.

The adversary selects one unordered pair of distinct nodes per step.  The
only model requirement is *fairness*: a configuration reachable in one step
from a configuration occurring infinitely often must itself occur
infinitely often.  Running times are always measured under the
:class:`UniformRandomScheduler`, which picks each of the ``n(n-1)/2`` pairs
independently and uniformly at random (fair with probability 1).

The other schedulers here are fair-by-construction or fair-with-probability-1
adversaries used to exercise correctness claims, which in the paper hold
under *every* fair schedule.

Scheduler registry
------------------
Every scheduler registers itself in :data:`SCHEDULERS` (a
:class:`~repro.core.params.SpecRegistry`) via :func:`register_scheduler`,
mirroring the protocol registry: spec strings like ``"uniform"``,
``"round-robin"`` or ``"laggard:bias=0.9,lagged=0..4"`` name a
parameterized scheduler, round-trip through JSON (they are plain
strings) and are the ``scheduler`` axis of a
:class:`~repro.core.scenario.Scenario`:

>>> from repro.core.scheduler import SCHEDULERS
>>> SCHEDULERS.canonical("rr")
'round-robin'
>>> SCHEDULERS.canonical("laggard:lagged=0..2")
'laggard:bias=0.9,lagged=0..2'
>>> SCHEDULERS.instantiate("laggard:bias=0.8,lagged=0..4").bias
0.8
>>> SCHEDULERS.names()
['laggard', 'round-robin', 'scripted', 'targeted', 'uniform']

Adaptive adversaries
--------------------
Schedulers with :attr:`Scheduler.adaptive` set read the **live
configuration** while scheduling: :class:`TargetedScheduler` starves
whichever node currently holds a leader state (``aim=leader``) or
hammers the bridge edges of the active graph (``aim=bridge``).  The
sequential engine hands adaptive schedulers the evolving configuration
and the protocol when binding the pair stream; the event-driven engines
decline such scenarios through ``supports()`` (their geometric skips
encode the uniform law).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from repro.core.errors import SimulationError
from repro.core.params import (
    Param,
    SpecRegistry,
    format_node_set,
    format_pair_list,
    node_set,
    pair_list,
)

#: Global scheduler registry: name -> parameterized scheduler spec.
SCHEDULERS = SpecRegistry("scheduler")


def register_scheduler(
    name: str,
    *,
    params: tuple[Param, ...] = (),
    description: str = "",
    aliases: tuple[str, ...] = (),
):
    """Class decorator: register a :class:`Scheduler` under ``name`` in
    :data:`SCHEDULERS` (mirrors ``@register_protocol``)."""
    return SCHEDULERS.register(
        name, params=params, description=description, aliases=aliases
    )


def uniform_pairs(n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
    """The uniform random pair stream: each step one of the ``n(n-1)/2``
    pairs, independently and uniformly.  Module-level so schedulers that
    fall back to uniform picks share one stream instead of constructing
    throwaway :class:`UniformRandomScheduler` objects."""
    randrange = rng.randrange
    while True:
        u = randrange(n)
        v = randrange(n - 1)
        if v >= u:
            v += 1
        yield (u, v)


class Scheduler:
    """Base class: a stream of unordered pairs ``(u, v)``, ``u != v``."""

    #: True when the scheduler reads the live configuration while
    #: scheduling.  Adaptive schedulers implement
    #: ``pairs(n, rng, config=..., protocol=...)``; the sequential
    #: engine passes the evolving configuration (mutated in place, so
    #: the generator always sees the current states/edges) and the
    #: protocol under attack.
    adaptive = False

    def pairs(self, n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
        """Yield an infinite stream of interaction pairs for ``n`` nodes."""
        raise NotImplementedError

    @staticmethod
    def _check(n: int) -> None:
        if n < 2:
            raise SimulationError(f"need at least 2 nodes to interact, got {n}")


@register_scheduler(
    "uniform",
    aliases=("uniform-random", "random"),
    description="paper timing model: i.i.d. uniform pair per step",
)
class UniformRandomScheduler(Scheduler):
    """The paper's timing model: each step selects one of the
    ``n(n-1)/2`` pairs independently and uniformly at random."""

    def pairs(self, n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
        self._check(n)
        return uniform_pairs(n, rng)


@register_scheduler(
    "round-robin",
    aliases=("rr",),
    description="deterministic fair sweeps: every pair once per n(n-1)/2 steps",
)
class RoundRobinScheduler(Scheduler):
    """Deterministic fair scheduler: sweeps a permutation of all pairs,
    reshuffling between sweeps.  Every pair occurs once per ``n(n-1)/2``
    steps, so every execution is fair.

    >>> import random
    >>> stream = RoundRobinScheduler().pairs(3, random.Random(0))
    >>> sorted(next(stream) for _ in range(3))
    [(0, 1), (0, 2), (1, 2)]
    """

    def pairs(self, n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
        self._check(n)
        return self._pairs(n, rng)

    @staticmethod
    def _pairs(n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
        all_pairs = list(itertools.combinations(range(n), 2))
        while True:
            rng.shuffle(all_pairs)
            yield from all_pairs


@register_scheduler(
    "laggard",
    aliases=("adversarial-laggard",),
    params=(
        Param(
            "bias", float, default=0.9,
            help="probability of re-drawing a pair touching a lagged node",
        ),
        Param(
            "lagged", node_set, default=frozenset({0}),
            format=format_node_set,
            help="starved node set, e.g. 0..4 or 0..2+9",
        ),
    ),
    description="biased-but-fair adversary starving the lagged node set",
)
class AdversarialLaggardScheduler(Scheduler):
    """A biased-but-fair adversary: interactions involving nodes in the
    *lagged* set are selected with probability reduced by ``bias``.

    With probability ``bias`` a uniformly chosen pair touching a lagged node
    is re-drawn (once), so lagged nodes interact far less often.  Every pair
    still has positive probability in every step, hence the scheduler is
    fair with probability 1 — a legitimate adversary for correctness tests.
    """

    def __init__(
        self,
        lagged: frozenset[int] | set[int] = frozenset({0}),
        bias: float = 0.9,
    ):
        if not 0 <= bias < 1:
            raise SimulationError(f"bias must be in [0, 1), got {bias}")
        try:
            self.lagged = node_set(lagged)
        except ValueError as exc:
            raise SimulationError(f"bad lagged set: {exc}") from None
        self.bias = bias

    def pairs(self, n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
        self._check(n)
        if max(self.lagged) >= n:
            raise SimulationError(
                f"lagged nodes {format_node_set(self.lagged)} out of range "
                f"for n={n}"
            )
        return self._pairs(n, rng)

    def _pairs(self, n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
        stream = uniform_pairs(n, rng)
        lagged = self.lagged
        bias = self.bias
        for u, v in stream:
            if (u in lagged or v in lagged) and rng.random() < bias:
                yield next(stream)
            else:
                yield (u, v)


@register_scheduler(
    "scripted",
    params=(
        Param(
            "script", pair_list, format=format_pair_list,
            help="fixed pair prefix, e.g. 0-1+1-2",
        ),
    ),
    description="replays a fixed pair script, then uniform random",
)
class ScriptedScheduler(Scheduler):
    """Replays a fixed finite script of pairs, then falls back to a uniform
    random stream (so infinite executions remain fair).  Used by unit tests
    that need precise control over the interaction order.

    The script is validated eagerly: self-loops and negative ids fail at
    construction, out-of-range ids fail when :meth:`pairs` binds the
    population size — never mid-run.
    """

    def __init__(self, script):
        try:
            self.script = pair_list(script)
        except (ValueError, TypeError) as exc:
            raise SimulationError(f"bad script: {exc}") from None

    def pairs(self, n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
        self._check(n)
        for u, v in self.script:
            if u >= n or v >= n:
                raise SimulationError(
                    f"scripted pair {(u, v)} invalid for n={n}"
                )
        return self._pairs(n, rng)

    def _pairs(self, n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
        yield from self.script
        yield from uniform_pairs(n, rng)


def find_bridges(config) -> list[tuple[int, int]]:
    """The bridge edges of the configuration's active graph (edges whose
    removal disconnects a component), as sorted ``(u, v)`` pairs with
    ``u < v`` — the cut set an adaptive adversary wants to hammer.

    Iterative low-link DFS over the active adjacency, O(nodes + edges).

    >>> from repro.core.configuration import Configuration
    >>> find_bridges(Configuration(["a"] * 4, [(0, 1), (1, 2), (2, 3)]))
    [(0, 1), (1, 2), (2, 3)]
    >>> find_bridges(Configuration(["a"] * 3, [(0, 1), (1, 2), (0, 2)]))
    []
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: list[tuple[int, int]] = []
    timer = 0
    for root in range(config.n):
        if root in disc or not config.degree(root):
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(sorted(config.neighbors(root))))]
        while stack:
            u, parent, children = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] > disc[p]:
                        bridges.append((p, u) if p < u else (u, p))
                continue
            if child == parent:
                # The tree edge back up; simple graphs hold it once.
                continue
            if child in disc:
                if disc[child] < low[u]:
                    low[u] = disc[child]
            else:
                disc[child] = low[child] = timer
                timer += 1
                stack.append(
                    (child, u, iter(sorted(config.neighbors(child))))
                )
    bridges.sort()
    return bridges


@register_scheduler(
    "targeted",
    aliases=("adversarial-targeted",),
    params=(
        Param(
            "aim", str, default="leader",
            help="attack focus: leader (starve it) or bridge (hammer them)",
        ),
        Param(
            "bias", float, default=0.9,
            help="attack intensity in [0, 1)",
        ),
    ),
    description="adaptive adversary: starves the live leader or hammers "
                "bridge edges",
)
class TargetedScheduler(Scheduler):
    """An *adaptive* biased-but-fair adversary that reads the live
    configuration each pick.

    * ``aim=leader`` — starvation: a uniformly drawn pair touching a
      current leader is re-drawn (once) with probability ``bias``, so
      whoever holds the leader role interacts rarely — unlike
      :class:`AdversarialLaggardScheduler`, the starved set follows the
      leader around as the protocol moves it.  Leaders are the nodes in
      the protocol's :attr:`~repro.core.protocol.Protocol.leader_states`
      when declared; otherwise any node whose state is globally unique
      (a distinguished role) counts as a target.
    * ``aim=bridge`` — with probability ``bias`` the pick is a uniformly
      chosen **bridge** of the active graph (an edge whose removal
      disconnects a component): the adversary keeps scheduling exactly
      the interactions a fragile construction is most sensitive about.

    Every pair keeps positive probability each step (with probability
    ``1 - bias`` the pick is purely uniform), so the scheduler is fair
    with probability 1 — a legitimate adversary for correctness claims.
    """

    adaptive = True

    #: Recognized values of ``aim``.
    AIMS = ("leader", "bridge")

    def __init__(self, aim: str = "leader", bias: float = 0.9) -> None:
        if aim not in self.AIMS:
            raise SimulationError(
                f"unknown targeted aim {aim!r}; choose from {list(self.AIMS)}"
            )
        if not 0 <= bias < 1:
            raise SimulationError(f"bias must be in [0, 1), got {bias}")
        self.aim = aim
        self.bias = bias

    def pairs(
        self,
        n: int,
        rng: random.Random,
        config=None,
        protocol=None,
    ) -> Iterator[tuple[int, int]]:
        self._check(n)
        if config is None:
            raise SimulationError(
                "the targeted scheduler is adaptive: it needs the live "
                "configuration (run it through the sequential engine)"
            )
        if self.aim == "leader":
            return self._leader_pairs(n, rng, config, protocol)
        return self._bridge_pairs(n, rng, config)

    def _leader_pairs(self, n, rng, config, protocol):
        stream = uniform_pairs(n, rng)
        bias = self.bias
        leader_states = getattr(protocol, "leader_states", None)

        def is_target(u: int) -> bool:
            su = config.state(u)
            if leader_states is not None:
                return su in leader_states
            return config.count_in_state(su) == 1

        for u, v in stream:
            if (is_target(u) or is_target(v)) and rng.random() < bias:
                yield next(stream)
            else:
                yield (u, v)

    def _bridge_pairs(self, n, rng, config):
        stream = uniform_pairs(n, rng)
        bias = self.bias
        cache_key = None
        bridges: list[tuple[int, int]] = []
        for u, v in stream:
            if rng.random() < bias:
                key = (config.n, config.n_active_edges)
                if key != cache_key:
                    bridges = find_bridges(config)
                    cache_key = key
                if bridges:
                    yield bridges[rng.randrange(len(bridges))]
                    continue
            yield (u, v)
