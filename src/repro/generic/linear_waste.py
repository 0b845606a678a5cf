"""Rule-level machinery of the linear-waste constructors — Theorems 14/15.

Three genuine network-constructor protocols implement the phases that
Figures 4, 6, 7 and 8 of the paper illustrate:

* :class:`UDPartition` — Theorem 14's opening move: partition the
  population into two matched halves U (simulator) and D (useful space)
  via ``(q0, q0, 0) -> (qu, qd, 1)`` (Figure 4's vertical matching).
* :class:`UDMPartition` — Theorem 15's three-way partitioning into
  equal sets U, D and M (Figures 7 and 8), where M's edges later serve
  as the Θ(n²) tape.
* :class:`AddressedEdgeOps` — Figure 6's mechanism: U-nodes selected by
  the line-TM's counter walk mark their matched D-nodes with an
  operation (activate / deactivate / coin-toss), the two marked D-nodes
  apply it to the edge between them when they interact, and the
  acknowledgement flows back.  The binary-counter walk itself is
  TM-internal and exercised by :mod:`repro.tm.line_machine` (Figure 5);
  here the selection flags are its post-condition.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.errors import SimulationError
from repro.core.protocol import (
    Distribution,
    Outcome,
    Protocol,
    State,
    TableProtocol,
    deterministic,
)
from repro.protocols.registry import Param, register_protocol

#: D-node operation codes (what the TM asked for).
ACTIVATE = "act"
DEACTIVATE = "deact"
COIN = "coin"


@register_protocol(
    "ud-partition",
    description="Theorem 14 step 1: (U, D) maximum matching with roles",
)
class UDPartition(TableProtocol):
    """Theorem 14, step one: a maximum matching with role assignment.

    Stabilizes with ``floor(n/2)`` (qu, qd) pairs; one node is left in
    ``q0`` when n is odd.  Expected time Θ(n²) (a maximum matching)."""

    def __init__(self) -> None:
        super().__init__(
            name="UD-Partition",
            initial_state="q0",
            rules={("q0", "q0", 0): ("qu", "qd", 1)},
        )

    def stabilized(self, config: Configuration) -> bool:
        """Quiescent exactly when at most one unmatched node remains."""
        return config.count_in_state("q0") <= 1

    def target_reached(self, config: Configuration) -> bool:
        pairs = config.n // 2
        if (
            config.count_in_state("qu") != pairs
            or config.count_in_state("qd") != pairs
        ):
            return False
        for u in config.nodes_in_state("qu"):
            nbrs = config.neighbors(u)
            if len(nbrs) != 1:
                return False
            (v,) = nbrs
            if config.state(v) != "qd":
                return False
        return True


@register_protocol(
    "udm-partition",
    description="Theorem 15: (U, D, M) partition into qd-qu-qm chains",
)
class UDMPartition(TableProtocol):
    """Theorem 15's (U, D, M) partitioning — the exact four rules of the
    paper (Figure 8):

    * ``(q0, q0, 0) -> (qu', qd, 1)`` — a new U-candidate grabs a D-node;
    * ``(qu', q0, 0) -> (qu, qm, 1)`` — an unsatisfied U grabs an M-node
      and becomes satisfied;
    * ``(qu', qu', 0) -> (qu, qm', 1)`` — two unsatisfied U's resolve:
      one becomes the other's M-node (first releasing its own D);
    * ``(qm', qd, 1) -> (qm, q0, 0)`` — the demoted U releases its
      D-node back into the pool.

    Stabilizes (for n divisible by 3) with n/3 chains qd - qu - qm.
    """

    def __init__(self) -> None:
        super().__init__(
            name="UDM-Partition",
            initial_state="q0",
            rules={
                ("q0", "q0", 0): ("qup", "qd", 1),
                ("qup", "q0", 0): ("qu", "qm", 1),
                ("qup", "qup", 0): ("qu", "qmp", 1),
                ("qmp", "qd", 1): ("qm", "q0", 0),
            },
        )

    def stabilized(self, config: Configuration) -> bool:
        """No rule applies: no pending qm', and the leftover q0/qu'
        material cannot pair up any more."""
        if config.count_in_state("qmp"):
            return False
        q0 = config.count_in_state("q0")
        qup = config.count_in_state("qup")
        if qup >= 2 or (qup >= 1 and q0 >= 1):
            return False
        return q0 <= 1

    def triples(self, config: Configuration) -> list[tuple[int, int, int]]:
        """The completed (qd, qu, qm) chains."""
        chains = []
        for u in config.nodes_in_state("qu"):
            d_node = m_node = None
            for v in config.neighbors(u):
                if config.state(v) == "qd":
                    d_node = v
                elif config.state(v) == "qm":
                    m_node = v
            if d_node is not None and m_node is not None:
                chains.append((d_node, u, m_node))
        return chains

    def target_reached(self, config: Configuration) -> bool:
        want = config.n // 3
        slack = 1 if config.n % 3 else 0
        return len(self.triples(config)) >= want - slack


@register_protocol(
    "addressed-edge-ops",
    params=(Param("k", int, default=2, minimum=2, help="(U, D) pair count"),),
    description="Figure 6: counter-addressed D-edge ops on k (U, D) pairs",
)
class AddressedEdgeOps(Protocol):
    """Figure 6: counter-addressed D-edge reading/writing.

    Operates on a prepared configuration of ``k`` (U, D) matched pairs:
    U-node ``i`` is agent ``2i``, its matched D-node agent ``2i+1``, and
    the vertical edges are active (the Figure 4 layout).  The caller
    "selects" two U-nodes — the post-condition of the TM's binary-counter
    walk — with an operation tag; the protocol's pairwise rules then:

    1. ``(U selected op, D idle, 1) -> (U waiting, D marked op, 1)``
    2. ``(D marked op, D marked op, c) -> (D done, D done, op(c))``
       where a ``coin`` op activates with probability 1/2 (PREL).
    3. ``(D done, U waiting, 1) -> (D idle, U acked, 1)``

    Once both U-nodes are ``acked`` the operation is complete and the
    controller may select the next edge.  States are structured tuples
    ``('U'|'D', phase, op)``.
    """

    name = "Addressed-Edge-Ops"
    output_states = None

    def __init__(self, k: int) -> None:
        if k < 2:
            raise SimulationError("need at least two (U, D) pairs")
        self.k = k

    # -- layout helpers -------------------------------------------------
    @staticmethod
    def u_agent(i: int) -> int:
        return 2 * i

    @staticmethod
    def d_agent(i: int) -> int:
        return 2 * i + 1

    def initial_configuration(self, n: int) -> Configuration:
        if n != 2 * self.k:
            raise SimulationError(f"population must be 2k={2 * self.k}, got {n}")
        states: list[State] = []
        for _ in range(self.k):
            states.append(("U", "idle", None))
            states.append(("D", "idle", None))
        config = Configuration(states)
        for i in range(self.k):
            config.set_edge(self.u_agent(i), self.d_agent(i), 1)
        return config

    def select(self, config: Configuration, i: int, j: int, op: str) -> None:
        """Install the TM's selection marks on U-nodes i and j."""
        if op not in (ACTIVATE, DEACTIVATE, COIN):
            raise SimulationError(f"unknown edge op {op!r}")
        if i == j:
            raise SimulationError("cannot address a self-loop")
        for index in (i, j):
            agent = self.u_agent(index)
            if config.state(agent) != ("U", "idle", None):
                raise SimulationError(
                    f"U-node {index} is busy: {config.state(agent)!r}"
                )
            config.set_state(agent, ("U", "selected", op))

    def operation_complete(self, config: Configuration) -> bool:
        """No selection, marking or acknowledgement in flight."""
        for u in range(config.n):
            state = config.state(u)
            if not isinstance(state, tuple):
                continue  # the DEAD sentinel under crash faults
            if state[1] not in ("idle", "acked"):
                return False
        return True

    def clear_acks(self, config: Configuration) -> None:
        for u in range(config.n):
            state = config.state(u)
            if not isinstance(state, tuple):
                continue  # the DEAD sentinel under crash faults
            role, phase, op = state
            if phase == "acked":
                config.set_state(u, (role, "idle", None))

    # -- rules ----------------------------------------------------------
    def delta(self, a: State, b: State, c: int) -> Distribution | None:
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            return None
        role_a, phase_a, op_a = a
        role_b, phase_b, op_b = b
        # 1. Selected U marks its matched D (the active vertical edge).
        if (
            c == 1
            and role_a == "U"
            and phase_a == "selected"
            and role_b == "D"
            and phase_b == "idle"
        ):
            return deterministic(
                ("U", "waiting", op_a), ("D", "marked", op_a), 1
            )
        # 2. The two marked D-nodes apply the operation to their edge.
        if role_a == "D" and role_b == "D" and phase_a == phase_b == "marked":
            done = ("D", "done", None)
            if op_a == COIN:
                # The PREL fair coin: activate/deactivate equiprobably.
                return (
                    (0.5, Outcome(done, done, 1)),
                    (0.5, Outcome(done, done, 0)),
                )
            new_edge = 1 if op_a == ACTIVATE else 0
            return deterministic(done, done, new_edge)
        # 3. Acknowledge back to the waiting U-node.
        if (
            c == 1
            and role_a == "D"
            and phase_a == "done"
            and role_b == "U"
            and phase_b == "waiting"
        ):
            return deterministic(("D", "idle", None), ("U", "acked", None), 1)
        return None

    def stabilized(self, config: Configuration) -> bool:
        return self.operation_complete(config)
