"""Supernodes with names and logarithmic memories — Theorem 18.

The population organizes into k lines ("supernodes") of length
ceil(log2 k) each, for the largest such k the protocol's phase-doubling
reaches: at the end of phase j there are 2^j named lines of length j.
Each line's name (its index in binary) is stored *in the line itself*,
one bit per agent — the logarithmic local memory the theorem promises.

The module follows the paper's protocol operationally (phases, the
increment-existing / create-new subphases, cname assignment, and the
leader's connections to every line's left endpoint), driving explicit
configuration updates rather than single-interaction rules; the
leader-election-with-reversion technique it relies on is exercised at
rule level elsewhere (one-to-one elimination; Faster-Global-Line's line
reversion).  See DESIGN.md, Substitutions.

The triangle-partition application from the paper's discussion is
provided by :func:`triangle_partition`: supernode i connects to i+2 when
i % 3 == 0 and to i-1 otherwise — a fully parallel construction made
trivial by names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.configuration import Configuration
from repro.core.errors import SimulationError
from repro.core.graphs import nx


@dataclass
class Supernode:
    """One constructed line: its name, its agents (left to right), and
    the name bits stored on them (MSB first, padded to the line length)."""

    name: int
    agents: list[int]
    bits: str = ""

    @property
    def length(self) -> int:
        return len(self.agents)

    @property
    def left(self) -> int:
        return self.agents[0]

    @property
    def right(self) -> int:
        return self.agents[-1]


@dataclass
class SupernodeLayout:
    """The stabilized organization: k lines of length j plus waste."""

    supernodes: list[Supernode]
    phase: int
    leader_agent: int
    waste_agents: list[int] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.supernodes)

    @property
    def line_length(self) -> int:
        return self.phase


def organize_supernodes(n: int) -> SupernodeLayout:
    """Run the Theorem 18 phase protocol on ``n`` agents.

    Phase j ends with 2^j lines of length j; a new phase starts whenever
    the leader can extend its own line by one isolated node and there is
    enough free material to (a) grow all 2^(j-1) other lines to length j
    and (b) create 2^(j-1) fresh lines of length j.  Agents that remain
    isolated when material runs out are the waste.
    """
    if n < 8:
        raise SimulationError(
            f"the Theorem 18 protocol assumes n >= 8, got {n}"
        )
    free = list(range(n))

    def take(count: int) -> list[int]:
        grabbed, free[:] = free[:count], free[count:]
        return grabbed

    # Initial trivial setup: 4 lines of length 2; line 0 is the leader's.
    lines = [Supernode(name, take(2)) for name in range(4)]
    phase = 2

    while True:
        next_phase = phase + 1
        existing = len(lines)
        # The leader extends its own line by one (starts the phase), every
        # other existing line grows by one, and 2^(j-1)... the paper's r
        # = 2^(j-1)? No: r = 2^(j-1) new lines would double 2^(j-1) to
        # 2^j; with `existing` lines the subphases need
        # (existing) growth nodes + (existing) * next_phase creation nodes.
        needed = existing + existing * next_phase
        if len(free) < needed:
            break
        for line in lines:
            line.agents.extend(take(1))
        lines.extend(
            Supernode(existing + i, take(next_phase))
            for i in range(existing)
        )
        phase = next_phase

    for name, line in enumerate(lines):
        line.name = name
        width = max(1, line.length)
        line.bits = format(name, "b").zfill(width)[-width:]

    return SupernodeLayout(
        supernodes=lines,
        phase=phase,
        leader_agent=lines[0].left,
        waste_agents=free,
    )


def layout_configuration(layout: SupernodeLayout) -> Configuration:
    """Materialize the layout as an agent configuration.

    Agent states are ``('sn', name_bit, role)`` with role in
    {'left', 'mid', 'right'}; the leader's left endpoint is additionally
    connected to every other line's left endpoint, as in the paper's
    construction (those connections are not part of the output network).
    Waste agents stay in ``('free',)``.
    """
    n = (
        sum(line.length for line in layout.supernodes)
        + len(layout.waste_agents)
    )
    states: list = [("free",)] * n
    config = Configuration(states)
    for line in layout.supernodes:
        for position, agent in enumerate(line.agents):
            role = (
                "left"
                if position == 0
                else "right"
                if position == line.length - 1
                else "mid"
            )
            config.set_state(agent, ("sn", line.bits[position], role))
        for left, right in zip(line.agents, line.agents[1:]):
            config.set_edge(left, right, 1)
    hub = layout.supernodes[0].left
    for line in layout.supernodes[1:]:
        config.set_edge(hub, line.left, 1)
    return config


def read_names(layout: SupernodeLayout, config: Configuration) -> list[int]:
    """Decode each line's stored name from the agents' bit states."""
    names = []
    for line in layout.supernodes:
        bits = "".join(config.state(agent)[1] for agent in line.agents)
        names.append(int(bits, 2))
    return names


def triangle_partition(layout: SupernodeLayout) -> nx.Graph:
    """The paper's supernode application: partition the supernodes into
    triangles using their names — supernode i connects to i+2 if
    i % 3 == 0, else to i-1.  The phase-doubling always yields
    k = 4 * 2^i (never divisible by 3), so the k mod 3 highest-named
    supernodes stay isolated; every id arithmetic is purely local, making
    the construction fully parallel.  Returns the supernode-level graph
    (node = supernode name)."""
    k = layout.k
    usable = k - (k % 3)
    graph = nx.Graph()
    graph.add_nodes_from(range(k))
    for i in range(usable):
        if i % 3 == 0:
            graph.add_edge(i, i + 2)
        else:
            graph.add_edge(i, i - 1)
    return graph


def realize_supernode_network(
    layout: SupernodeLayout, network: nx.Graph
) -> Configuration:
    """Realize a supernode-level network as agent-level edges between the
    *right endpoints* of the lines (the paper's output convention)."""
    config = layout_configuration(layout)
    for a, b in network.edges():
        config.set_edge(
            layout.supernodes[a].right, layout.supernodes[b].right, 1
        )
    return config
