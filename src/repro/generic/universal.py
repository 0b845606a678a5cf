"""The universal construction loop — Figure 3 / Theorem 14.

The pipeline: (i) organize half the population as a simulator over the
other half, (ii) draw a uniform random graph G ∈ G_{k,1/2} on the useful
space by per-edge fair coins, (iii) decide G ∈ L; accept → freeze, reject
→ redraw.  Every graph of L on k nodes is constructed equiprobably.

Fidelity levels (see DESIGN.md, Substitutions):

* The **drawing** phase runs at rule level: every coin toss is a pairwise
  interaction sequence of :class:`repro.generic.linear_waste.AddressedEdgeOps`
  (select → mark → toss → ack), i.e. the exact Figure 6 machinery.
* The **decision** phase runs either directly (`decide_on_line=False`) or,
  for raw-TM deciders, on a genuine line of agents via
  :mod:`repro.tm.line_machine` (`decide_on_line=True`) — the Figure 5
  machinery end to end.
* The **sequencing** of edge selections (the binary-counter walk the
  paper's TM performs between operations) is orchestrated by the caller,
  standing in for the line-TM's program; the counter mechanics themselves
  are validated by the Figure 5/6 benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.configuration import Configuration
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.graphs import nx
from repro.core.protocol import (
    Distribution,
    Outcome,
    Protocol,
    State,
    deterministic,
)
from repro.core.simulator import IndexedSimulator
from repro.generic.linear_waste import COIN, AddressedEdgeOps
from repro.generic.random_graphs import gnp
from repro.protocols.registry import Param, RegistryError, register_protocol
from repro.tm.deciders import Decider, TMDecider, registry as decider_registry
from repro.tm.line_machine import run_machine_on_line


@dataclass
class UniversalReport:
    """Outcome of one universal construction."""

    graph: nx.Graph
    attempts: int
    interaction_steps: int
    coin_tosses: int
    useful_space: int
    waste: int
    decided_on_line: bool = False
    final_configuration: Configuration | None = None
    attempt_graphs: list[int] = field(default_factory=list)


class UniversalConstructor:
    """Construct a graph of a decidable language L with linear waste.

    Parameters
    ----------
    decider:
        The language L (any :class:`repro.tm.deciders.Decider`).
    rule_level:
        True — draw each edge through the AddressedEdgeOps interaction
        machinery (slow, faithful).  False — draw with the reference
        G_{k,1/2} sampler (fast; used for large statistical tests).
    decide_on_line:
        For raw-TM deciders, run the accept/reject decision on a line of
        agents as well.
    """

    def __init__(
        self,
        decider: Decider,
        *,
        rule_level: bool = True,
        decide_on_line: bool = False,
    ) -> None:
        if decide_on_line and not isinstance(decider, TMDecider):
            raise SimulationError(
                "decide_on_line requires a raw-TM decider"
            )
        self.decider = decider
        self.rule_level = rule_level
        self.decide_on_line = decide_on_line

    # ------------------------------------------------------------------
    def construct(
        self,
        n: int,
        *,
        seed: int | None = None,
        max_attempts: int = 10_000,
    ) -> UniversalReport:
        """Run the Figure-3 loop on a population of ``n`` agents.

        The useful space is k = floor(n/2); the other k agents (plus one
        odd leftover) are the waste that simulates the TM.
        """
        rng = random.Random(seed)
        k = n // 2
        if k < 2:
            raise SimulationError(f"need n >= 4 for a useful space, got {n}")
        interaction_steps = 0
        coin_tosses = 0
        attempt_graphs: list[int] = []

        ops = AddressedEdgeOps(k)
        config = ops.initial_configuration(2 * k)

        for attempt in range(1, max_attempts + 1):
            if self.rule_level:
                graph, steps = self._draw_rule_level(ops, config, rng)
                interaction_steps += steps
            else:
                graph = gnp(k, 0.5, rng)
            coin_tosses += k * (k - 1) // 2
            accepted, decision_steps = self._decide(graph, rng)
            interaction_steps += decision_steps
            if accepted:
                if self.rule_level:
                    self._release(ops, config)
                return UniversalReport(
                    graph=graph,
                    attempts=attempt,
                    interaction_steps=interaction_steps,
                    coin_tosses=coin_tosses,
                    useful_space=k,
                    waste=n - k,
                    decided_on_line=self.decide_on_line,
                    final_configuration=config if self.rule_level else None,
                    attempt_graphs=attempt_graphs,
                )
            attempt_graphs.append(attempt)
        raise ConvergenceError(
            f"language {self.decider.name!r} not hit within "
            f"{max_attempts} draws from G_{{{k},1/2}}",
            interaction_steps,
        )

    # ------------------------------------------------------------------
    def _draw_rule_level(
        self, ops: AddressedEdgeOps, config: Configuration, rng: random.Random
    ) -> tuple[nx.Graph, int]:
        """Toss one rule-level coin per D-edge (Figure 6 sequence)."""
        steps = 0
        for i, j in combinations(range(ops.k), 2):
            ops.select(config, i, j, COIN)
            sim = IndexedSimulator(seed=rng.randrange(2**62))
            result = sim.run(
                ops,
                config.n,
                max_steps=None,
                config=config,
                copy_config=False,
            )
            ops.clear_acks(config)
            steps += result.steps
        return self._extract_graph(ops, config), steps

    @staticmethod
    def _extract_graph(ops: AddressedEdgeOps, config: Configuration) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(range(ops.k))
        for i, j in combinations(range(ops.k), 2):
            if config.edge_state(ops.d_agent(i), ops.d_agent(j)) == 1:
                graph.add_edge(i, j)
        return graph

    @staticmethod
    def _release(ops: AddressedEdgeOps, config: Configuration) -> None:
        """Releasing phase: deactivate the vertical matching edges and
        move the D-nodes to the output state."""
        for i in range(ops.k):
            config.set_edge(ops.u_agent(i), ops.d_agent(i), 0)
            config.set_state(ops.d_agent(i), ("D", "out", None))

    def _decide(self, graph: nx.Graph, rng: random.Random) -> tuple[bool, int]:
        if not self.decide_on_line:
            return self.decider.decide(graph), 0
        assert isinstance(self.decider, TMDecider)
        tape = self.decider.tape_for(graph)
        tm_result, run, _ = run_machine_on_line(
            self.decider.machine, tape, seed=rng.randrange(2**62)
        )
        return tm_result.accepted, run.steps


# ----------------------------------------------------------------------
# The registered, engine-driven universal protocol
# ----------------------------------------------------------------------

_FAMILY_NAMES = ", ".join(sorted(decider_registry()))


@register_protocol(
    "universal",
    params=(
        Param(
            "family", str, default="has-edge",
            help="decidable graph language L: " + _FAMILY_NAMES,
        ),
        Param(
            "k", int, default=0, minimum=0,
            help="useful-space size (0: floor(n/2))",
        ),
    ),
    aliases=("universal-constructor",),
    shorthand=r"universal-(?P<family>[a-z0-9-]+)",
    description="Figure 3 / Theorem 14: draw G(k,1/2), accept via L, release",
)
class UniversalProtocol(Protocol):
    """The Figure-3 loop as a genuine network-constructor protocol.

    Unlike :class:`UniversalConstructor` (a driver orchestrating
    sub-runs), every step here is a pairwise interaction executed by the
    ordinary simulation engines, so the construction runs through the
    Runner, scenarios and sweeps like any registered protocol.

    The population splits into a useful space of ``k`` D-agents and a
    simulator half: one *controller* agent plus ``k - 1`` inert U-agents
    (plus inert ``W`` leftovers when ``n > 2k``).  The controller stands
    in for the whole line-TM simulator — its structured state carries the
    program counter and the adjacency bits collected so far, the same
    "sequencing is the TM's job" substitution documented for
    :class:`UniversalConstructor`, compressed into one agent's state.
    The per-edge machinery is the Figure 6 sequence with value-carrying
    acknowledgements:

    1. the controller *arms* the two D-agents of the current pair with a
       coin op tagged by the pair index;
    2. the armed D-agents toss the fair coin when they interact, setting
       their edge to the drawn value (PREL);
    3. the controller *collects* the drawn bit back from each D-agent.

    After the last pair the controller decides ``bits ∈ L`` (a pure
    function of its own state); on accept it releases the useful space —
    D-agents move to the ``out`` role and drop their vertical matching
    edges — and halts, on reject it redraws every edge.  Every graph of
    L on ``k`` nodes is constructed equiprobably, exactly as in the
    driver version.
    """

    name = "Universal"
    output_states = None
    initial_state = None  # non-uniform start: roles are pre-assigned

    def __init__(self, family: str = "has-edge", k: int = 0) -> None:
        deciders = decider_registry()
        if family not in deciders:
            raise RegistryError(
                f"unknown graph language {family!r}; "
                f"choose from {', '.join(sorted(deciders))}"
            )
        if k == 1:
            raise RegistryError(
                "useful space k=1 has no edges to draw; pass k=0 (derive "
                "floor(n/2)) or k >= 2"
            )
        self.family = family
        self.k = k
        self.decider = deciders[family]
        self.name = f"Universal[{family}]"
        self._pair_cache: dict[int, tuple[tuple[int, int], ...]] = {}

    # ------------------------------------------------------------------
    def _pairs(self, k: int) -> tuple[tuple[int, int], ...]:
        pairs = self._pair_cache.get(k)
        if pairs is None:
            pairs = tuple(combinations(range(k), 2))
            self._pair_cache[k] = pairs
        return pairs

    def _useful_space(self, n: int) -> int:
        k = self.k if self.k else n // 2
        if k < 2:
            raise SimulationError(f"need n >= 4 for a useful space, got {n}")
        if n < 2 * k:
            raise SimulationError(
                f"useful space k={k} needs n >= {2 * k} (half the "
                f"population simulates), got {n}"
            )
        return k

    def initial_configuration(self, n: int) -> Configuration:
        k = self._useful_space(n)
        states: list[State] = [("C", k, "arm", 0, 0, ())]
        states += [("U", "idle")] * (k - 1)
        states += [("D", i, "idle") for i in range(k)]
        states += [("W",)] * (n - 2 * k)
        config = Configuration(states)
        for i in range(k):
            config.set_edge(i, k + i, 1)  # vertical (simulator, D) matching
        return config

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def delta(self, a: State, b: State, c: int) -> Distribution | None:
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            return None
        if a[0] == "C":
            return self._controller_rule(a, b, c)
        if a[0] == "D" and len(b) >= 1:
            if b[0] == "D":
                return self._toss_rule(a, b, c)
            if b[0] == "U":
                return self._release_rule(a, b, c)
        return None  # resolve() retries the swapped orientation

    def _controller_rule(self, ctrl: tuple, other: tuple, c: int):
        if other[0] != "D":
            return None
        k, phase = ctrl[1], ctrl[2]
        pairs = self._pairs(k)
        if phase == "arm":
            _, _, _, t, which, bits = ctrl
            target = pairs[t][which]
            if other != ("D", target, "idle"):
                return None
            if which == 0:
                new_ctrl = ("C", k, "arm", t, 1, bits)
            else:
                new_ctrl = ("C", k, "collect", t, 0, bits)
            return deterministic(new_ctrl, ("D", target, "marked", t), c)
        if phase == "collect":
            _, _, _, t, which, bits = ctrl
            if len(other) != 5 or other[2] != "done" or other[3] != t:
                return None
            idle = ("D", other[1], "idle")
            if which == 0:
                drawn = bits + (other[4],)
                return deterministic(
                    ("C", k, "collect", t, 1, drawn), idle, c
                )
            if t + 1 < len(pairs):
                new_ctrl = ("C", k, "arm", t + 1, 0, bits)
            elif self._accepts(k, bits):
                new_ctrl = ("C", k, "release", 0)
            else:
                new_ctrl = ("C", k, "arm", 0, 0, ())  # reject: redraw
            return deterministic(new_ctrl, idle, c)
        if phase == "release":
            t = ctrl[3]
            if other != ("D", t, "idle"):
                return None
            new_ctrl = (
                ("C", k, "halt") if t + 1 == k else ("C", k, "release", t + 1)
            )
            return deterministic(new_ctrl, ("D", t, "out"), c)
        # phase == "halt": drop the leftover vertical edge to D_0.
        if phase == "halt" and len(other) == 3 and other[2] == "out" and c == 1:
            return deterministic(ctrl, other, 0)
        return None

    def _toss_rule(self, a: tuple, b: tuple, c: int):
        if (
            len(a) == 4
            and len(b) == 4
            and a[2] == "marked"
            and b[2] == "marked"
            and a[3] == b[3]
            and a[1] < b[1]  # single orientation; resolve() handles the swap
        ):
            t = a[3]
            return (
                (0.5, Outcome(("D", a[1], "done", t, 1),
                              ("D", b[1], "done", t, 1), 1)),
                (0.5, Outcome(("D", a[1], "done", t, 0),
                              ("D", b[1], "done", t, 0), 0)),
            )
        return None

    def _release_rule(self, a: tuple, b: tuple, c: int):
        if len(a) == 3 and a[2] == "out" and b == ("U", "idle") and c == 1:
            return deterministic(a, ("U", "done"), 0)
        return None

    # ------------------------------------------------------------------
    def _accepts(self, k: int, bits: tuple[int, ...]) -> bool:
        """Decide the drawn adjacency bits — a pure function of the
        controller's state, standing in for the TM's decision phase."""
        graph = nx.Graph()
        graph.add_nodes_from(range(k))
        for (i, j), bit in zip(self._pairs(k), bits):
            if bit:
                graph.add_edge(i, j)
        return bool(self.decider.decide(graph))

    def constructed_graph(self, config: Configuration) -> nx.Graph:
        """The useful-space graph: D-agents relabeled to ``0..k-1`` with
        their active D-D edges."""
        index = {}
        for u in range(config.n):
            state = config.state(u)
            if isinstance(state, tuple) and state and state[0] == "D":
                index[u] = state[1]
        graph = nx.Graph()
        graph.add_nodes_from(index.values())
        for u, v in config.active_edges():
            if u in index and v in index:
                graph.add_edge(index[u], index[v])
        return graph

    # ------------------------------------------------------------------
    def stabilized(self, config: Configuration) -> bool:
        """Halted controller, every U released, no vertical edge left —
        from then on no rule is effective and the output is fixed."""
        controller = None
        for u in range(config.n):
            state = config.state(u)
            if not isinstance(state, tuple) or not state:
                continue
            if state[0] == "C":
                if state[2] != "halt":
                    return False
                controller = u
            elif state[0] == "U" and state[1] != "done":
                return False
        if controller is None:
            return False
        return all(
            not (
                isinstance(config.state(v), tuple)
                and config.state(v)
                and config.state(v)[0] == "D"
            )
            for v in config.neighbors(controller)
        )

    def target_reached(self, config: Configuration) -> bool:
        return self.stabilized(config) and bool(
            self.decider.decide(self.constructed_graph(config))
        )
