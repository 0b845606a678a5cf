"""Symmetry-reduced explicit-state model checker for small populations.

Simulation samples executions; for small ``n`` the configuration graph
is finite and can be checked **exhaustively**.  Nodes start
indistinguishable (or in a fixed doped layout), so configurations are
canonicalized under node permutation — orbit reduction collapses the
``n!`` relabelings of every configuration into one canonical
representative, which keeps the graph tractable through ``n <= 6`` for
the paper's constant-state protocols.

The checked properties, over the SCC condensation of the canonical
configuration graph:

``terminal-scc``
    Every *terminal* SCC (no outgoing condensation edge — exactly the
    sets of configurations an infinite fair execution can end up
    cycling in) satisfies the protocol's registered target predicate in
    **every** member.  This is the paper's stability claim itself: under
    any fair schedule the protocol stabilizes, and only to correct
    outputs.

``fairness-closure``
    The ``stabilized`` certificate is sound for *output stability*:
    from any reachable configuration the certificate accepts, no
    sequence of interactions can ever change the output graph again.
    States may keep churning (Graph-Replication's unique leader
    re-copies edges forever) and the certificate itself may flicker
    mid-churn, but the output an engine reports when it stops on the
    certificate must be final — that is the paper's notion of a stable
    output, and the thing a revocable-but-output-sound certificate is
    still allowed to do.

``edge-loss-recovery``
    For protocols claiming ``"edge-loss"`` fault tolerance: delete any
    one active edge of any terminal-SCC member (applying the
    ``on_edge_loss`` notification to both endpoints), and every
    terminal SCC reachable from the damaged configuration must again be
    target-correct — the exhaustive version of the 2019 fault-tolerance
    claim at small ``n``.

Violations carry a minimal (BFS-shortest) executable witness; see
:mod:`repro.verify.counterexample`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Callable, Iterator

from repro.core.configuration import Configuration
from repro.core.errors import ReproError
from repro.core.protocol import CompiledProtocol, Protocol
from repro.verify.counterexample import Counterexample, build_counterexample
from repro.verify.lints import VerifyError

#: A canonical configuration: (state-id vector, sorted active edges).
CanonKey = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]

#: Transition record in parent numbering: (u, v, c, bu, bv, oe, perm).
Label = tuple[int, int, int, int, int, int, tuple[int, ...]]

#: Default cap on canonical configurations explored per (protocol, n).
DEFAULT_MAX_CONFIGS = 200_000

#: Population sizes tried in order when no size is given (``repro-net
#: verify`` without ``--n``, and the ``model-check`` conformance cell):
#: deliberately tiny, as the canonical configuration graph grows steeply
#: in n.  A protocol accepting none of them skips the check.
MODEL_POPULATIONS: tuple[int, ...] = (4, 5, 3, 2, 6)


def model_population(
    protocol: Protocol, candidates: tuple[int, ...] = MODEL_POPULATIONS
) -> int | None:
    """The first of ``candidates`` the protocol builds an initial
    configuration for, or ``None`` if it refuses every one."""
    for n in candidates:
        try:
            protocol.initial_configuration(n)
        except ReproError:
            continue
        return n
    return None


@dataclass(frozen=True)
class Violation:
    """One violated property, with its executable witness when one
    exists (fairness-closure witnesses run through the
    certificate-accepting configuration and end one step past the
    output-changing interaction)."""

    kind: str
    detail: str
    counterexample: Counterexample | None = None


@dataclass(frozen=True)
class ModelCheckReport:
    """Outcome of :func:`model_check` on one (protocol, n)."""

    protocol: str
    n: int
    n_configs: int
    n_transitions: int
    n_sccs: int
    n_terminal_sccs: int
    target: str | None
    checked: tuple[str, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (
            f"{self.protocol} @ n={self.n}: {self.n_configs} canonical "
            f"configs, {self.n_transitions} transitions, "
            f"{self.n_sccs} SCCs ({self.n_terminal_sccs} terminal), "
            f"target={self.target or 'none'}, "
            f"checked={'+'.join(self.checked)}"
        )
        if self.ok:
            return f"{head} — OK"
        lines = [head]
        for violation in self.violations:
            lines.append(f"  VIOLATION [{violation.kind}] {violation.detail}")
        return "\n".join(lines)


@dataclass
class StateGraph:
    """The explored canonical configuration graph of (protocol, n)."""

    protocol: Protocol
    compiled: object
    n: int
    roots: list[CanonKey]
    succ: dict[CanonKey, set[CanonKey]] = field(default_factory=dict)
    labels: dict[tuple[CanonKey, CanonKey], Label] = field(default_factory=dict)
    depth: dict[CanonKey, int] = field(default_factory=dict)

    @property
    def n_configs(self) -> int:
        return len(self.succ)

    @property
    def n_transitions(self) -> int:
        return len(self.labels)

    def configuration_of(self, key: CanonKey) -> Configuration:
        states, edges = key
        return Configuration(
            [self.compiled.state_of(s) for s in states], edges
        )


def _candidate_perms(states: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Permutations (node -> position) that sort the state vector; only
    these can realize the lexicographic minimum, so the search space is
    the product of factorials of the state-multiplicities, not n!."""
    n = len(states)
    order = sorted(range(n), key=lambda u: (states[u], u))
    blocks = []
    i = 0
    while i < n:
        j = i
        while j < n and states[order[j]] == states[order[i]]:
            j += 1
        blocks.append(order[i:j])
        i = j
    for combo in product(*(permutations(block) for block in blocks)):
        perm = [0] * n
        position = 0
        for block in combo:
            for u in block:
                perm[u] = position
                position += 1
        yield tuple(perm)


def canonicalize(
    states: tuple[int, ...], edges
) -> tuple[CanonKey, tuple[int, ...]]:
    """The canonical representative of a configuration under node
    permutation, plus one permutation (node -> canonical position)
    realizing it."""
    n = len(states)
    best_key: CanonKey | None = None
    best_perm: tuple[int, ...] | None = None
    for perm in _candidate_perms(states):
        new_states = [0] * n
        for u in range(n):
            new_states[perm[u]] = states[u]
        new_edges = tuple(sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in edges
        ))
        key = (tuple(new_states), new_edges)
        if best_key is None or key < best_key:
            best_key, best_perm = key, perm
    assert best_key is not None and best_perm is not None
    return best_key, best_perm


def _successors(
    compiled: CompiledProtocol, key: CanonKey
) -> Iterator[
    tuple[int, int, int, int, int, int,
          tuple[int, ...], tuple[tuple[int, int], ...]]
]:
    """Every non-identity one-interaction successor of a canonical
    configuration, in its own numbering: yields
    ``(u, v, c, bu, bv, oe, new_states, new_edges)``.  The symmetric
    ``(a, a, c) -> (a', b')`` coin contributes both assignments."""
    states, edge_t = key
    n = len(states)
    edges = set(edge_t)
    for u in range(n):
        for v in range(u + 1, n):
            c = 1 if (u, v) in edges else 0
            resolved = compiled.resolved(states[u], states[v], c)
            if resolved is None:
                continue
            dist, swapped = resolved
            for _, (oa, ob, oe) in dist:
                nu, nv = (ob, oa) if swapped else (oa, ob)
                branches = [(nu, nv)]
                if states[u] == states[v] and nu != nv:
                    branches.append((nv, nu))
                for bu, bv in branches:
                    if (bu, bv, oe) == (states[u], states[v], c):
                        continue
                    new_states = list(states)
                    new_states[u] = bu
                    new_states[v] = bv
                    if oe == 1:
                        new_edges = edges | {(u, v)}
                    else:
                        new_edges = edges - {(u, v)}
                    yield (u, v, c, bu, bv, oe, tuple(new_states), new_edges)


def _explore(graph: StateGraph, queue: deque, max_configs: int) -> None:
    """BFS the canonical configuration graph from the queued roots,
    extending ``succ``/``labels``/``depth`` in place."""
    compiled = graph.compiled
    while queue:
        key = queue.popleft()
        if key in graph.succ:
            continue
        children = set()
        for u, v, c, bu, bv, oe, ns, ne in _successors(compiled, key):
            child, perm = canonicalize(ns, ne)
            children.add(child)
            graph.labels.setdefault((key, child), (u, v, c, bu, bv, oe, perm))
            if child not in graph.depth:
                if len(graph.depth) >= max_configs:
                    raise VerifyError(
                        f"state space of {graph.protocol.name} at "
                        f"n={graph.n} exceeds max_configs={max_configs} "
                        "canonical configurations; raise the cap or "
                        "lower n"
                    )
                graph.depth[child] = graph.depth[key] + 1
                queue.append(child)
        graph.succ[key] = children


def explore(
    protocol: Protocol, n: int, *, max_configs: int = DEFAULT_MAX_CONFIGS
) -> StateGraph:
    """Build the canonical configuration graph from the protocol's
    initial configuration at population ``n``."""
    if protocol.states is None:
        raise VerifyError(
            f"{protocol.name} has no enumerable state set (states=None); "
            "model checking needs a declared Q"
        )
    compiled = protocol.compile()
    try:
        initial = protocol.initial_configuration(n)
    except ReproError as exc:
        raise VerifyError(
            f"{protocol.name} rejects population n={n}: {exc}"
        ) from exc
    states0 = tuple(compiled.intern(initial.state(u)) for u in range(initial.n))
    edges0 = set(initial.active_edges())
    root, _ = canonicalize(states0, edges0)
    graph = StateGraph(protocol=protocol, compiled=compiled, n=n, roots=[root])
    graph.depth[root] = 0
    _explore(graph, deque([root]), max_configs)
    return graph


def strongly_connected_components(
    succ: dict[CanonKey, set[CanonKey]]
) -> list[list[CanonKey]]:
    """Iterative Tarjan over the successor map (reverse topological
    order: every SCC precedes its predecessors in the result)."""
    index: dict[CanonKey, int] = {}
    low: dict[CanonKey, int] = {}
    on_stack: set[CanonKey] = set()
    stack: list[CanonKey] = []
    sccs: list[list[CanonKey]] = []
    counter = 0
    for start in succ:
        if start in index:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        work = [(start, iter(succ[start]))]
        while work:
            node, children = work[-1]
            pushed = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    pushed = True
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def _terminal_sccs(
    succ: dict[CanonKey, set[CanonKey]], sccs: list[list[CanonKey]]
) -> tuple[list[int], dict[CanonKey, int]]:
    """Indices of SCCs with no outgoing condensation edge, plus the
    node -> SCC-index map."""
    scc_of = {
        key: i for i, component in enumerate(sccs) for key in component
    }
    terminal = []
    for i, component in enumerate(sccs):
        if all(
            scc_of[child] == i
            for key in component
            for child in succ[key]
        ):
            terminal.append(i)
    return terminal, scc_of


def _shortest_path(
    graph: StateGraph, sources: list[CanonKey], target: CanonKey
) -> list[CanonKey]:
    """BFS-shortest key path from any source to ``target`` over the
    explored successor map."""
    parent: dict[CanonKey, CanonKey | None] = {s: None for s in sources}
    queue = deque(sources)
    while queue:
        key = queue.popleft()
        if key == target:
            path = [key]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])  # type: ignore[arg-type]
            path.reverse()
            return path
        for child in graph.succ.get(key, ()):
            if child not in parent:
                parent[child] = key
                queue.append(child)
    raise VerifyError("internal: counterexample target unreachable")


def _resolve_target(
    protocol: Protocol, target
) -> tuple[Callable[[Configuration], bool] | None, str | None]:
    """The target predicate as a bound ``config -> bool``, plus its
    display name.  ``target`` may be None (resolve from the registry),
    a :data:`~repro.protocols.registry.TARGETS` name, or a callable."""
    from repro.protocols import registry

    if target is None:
        bound = registry.target_predicate(protocol)
        if bound is None:
            return None, None
        return bound, getattr(bound, "target_name", "self-reported")
    if callable(target):
        return target, getattr(target, "target_name", "custom")
    predicate = registry.TARGETS[target]

    def bound(config: Configuration) -> bool:
        return predicate(protocol, config)

    return bound, target


def _output_signature(
    compiled: CompiledProtocol,
    states: tuple[int, ...],
    edges: tuple[tuple[int, int], ...],
) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """The output graph in fixed numbering: (member set, member edges).

    ``states`` are interned ids (the model checker's currency), so
    membership in ``Qout`` is decided on the raw states behind them.
    """
    out = compiled.protocol.output_states
    if out is None:
        members = frozenset(range(len(states)))
    else:
        members = frozenset(
            u for u, s in enumerate(states)
            if compiled.state_of(s) in out
        )
    return members, frozenset(
        (u, v) for u, v in edges if u in members and v in members
    )


def model_check(
    protocol: Protocol,
    n: int,
    *,
    target=None,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    max_violations: int = 3,
) -> ModelCheckReport:
    """Exhaustively check (protocol, n); see the module docstring for
    the property definitions.  ``target`` overrides the registered
    target predicate (a TARGETS name or a ``config -> bool`` callable) —
    needed for mutants and ad-hoc protocols the registry cannot name.
    """
    predicate, target_name = _resolve_target(protocol, target)
    graph = explore(protocol, n, max_configs=max_configs)
    violations: list[Violation] = []
    checked = []

    sccs = strongly_connected_components(graph.succ)
    terminal, scc_of = _terminal_sccs(graph.succ, sccs)

    # -- terminal-scc: every terminal SCC is target-correct throughout.
    bad_terminal: set[int] = set()
    if predicate is not None:
        checked.append("terminal-scc")
        for i in terminal:
            failing = [
                key for key in sccs[i]
                if not predicate(graph.configuration_of(key))
            ]
            if not failing:
                continue
            bad_terminal.add(i)
            if len(violations) >= max_violations:
                continue
            witness = min(failing, key=lambda key: graph.depth[key])
            path = _shortest_path(graph, graph.roots, witness)
            detail = (
                f"terminal SCC of size {len(sccs[i])} violates target "
                f"{target_name!r} in {len(failing)} member(s); reachable "
                f"in {len(path) - 1} interactions"
            )
            violations.append(Violation(
                "terminal-scc", detail,
                build_counterexample(
                    graph.compiled, n, path, graph.labels,
                    protocol_name=protocol.name, kind="terminal-scc",
                    detail=detail,
                ),
            ))

    # -- fairness-closure: once the certificate accepts, the output
    # -- graph can never change again (states may churn, the certificate
    # -- may even flicker — the reported output must be final).
    checked.append("fairness-closure")
    stable_keys = [
        key for key in graph.succ
        if protocol.stabilized(graph.configuration_of(key))
    ]
    if stable_keys:
        # Keys with an output-changing outgoing interaction, with one
        # witness transition each (in the key's own numbering).
        changing: dict[CanonKey, tuple] = {}
        for key in graph.succ:
            base = _output_signature(graph.compiled, key[0], key[1])
            for u, v, c, bu, bv, oe, ns, ne in _successors(
                graph.compiled, key
            ):
                if _output_signature(graph.compiled, ns, ne) != base:
                    changing[key] = (u, v, c, bu, bv, oe, ns, ne)
                    break
        # Reverse closure: everything that can still reach a change.
        pred_map: dict[CanonKey, set[CanonKey]] = {}
        for key, children in graph.succ.items():
            for child in children:
                pred_map.setdefault(child, set()).add(key)
        unsettled: set[CanonKey] = set(changing)
        frontier = deque(changing)
        while frontier:
            key = frontier.popleft()
            for parent in pred_map.get(key, ()):
                if parent not in unsettled:
                    unsettled.add(parent)
                    frontier.append(parent)
        for key in stable_keys:
            if key not in unsettled:
                continue
            if len(violations) >= max_violations:
                violations.append(Violation(
                    "fairness-closure",
                    "further fairness-closure violations suppressed",
                ))
                break
            culprit = min(
                (k for k in changing if _reachable(graph, key, k)),
                key=lambda k: graph.depth[k],
            )
            u, v, c, bu, bv, oe, ns, ne = changing[culprit]
            child, perm = canonicalize(ns, ne)
            # The recorded label for (culprit, child) may be a benign
            # parallel transition; force the output-changing one so the
            # witness ends on the interaction that breaks the output.
            labels = dict(graph.labels)
            labels[(culprit, child)] = (u, v, c, bu, bv, oe, perm)
            path = (
                _shortest_path(graph, graph.roots, key)
                + _shortest_path(graph, [key], culprit)[1:]
                + [child]
            )
            detail = (
                f"stabilized() accepts a configuration from which "
                f"interaction ({u}, {v}) can still change the output "
                f"graph: certificate is unsound for output stability"
            )
            violations.append(Violation(
                "fairness-closure", detail,
                build_counterexample(
                    graph.compiled, n, path, labels,
                    protocol_name=protocol.name, kind="fairness-closure",
                    detail=detail,
                ),
            ))

    # -- edge-loss-recovery: stable configs survive one adversarial cut.
    if "edge-loss" in protocol.fault_claims and predicate is not None:
        checked.append("edge-loss-recovery")
        hook = protocol.on_edge_loss
        damaged_roots: dict[CanonKey, tuple[CanonKey, tuple[int, int]]] = {}
        queue: deque = deque()
        for i in terminal:
            if i in bad_terminal:
                continue
            for key in sccs[i]:
                states, edge_t = key
                for u, v in edge_t:
                    new_states = list(states)
                    for node in (u, v):
                        replacement = hook(
                            graph.compiled.state_of(states[node])
                        )
                        if replacement is not None:
                            new_states[node] = graph.compiled.intern(
                                replacement
                            )
                    new_edges = set(edge_t) - {(u, v)}
                    damaged, _ = canonicalize(tuple(new_states), new_edges)
                    if damaged not in damaged_roots:
                        damaged_roots[damaged] = (key, (u, v))
                    if damaged not in graph.depth:
                        graph.depth[damaged] = 0
                        queue.append(damaged)
        _explore(graph, queue, max_configs)
        sccs = strongly_connected_components(graph.succ)
        terminal, scc_of = _terminal_sccs(graph.succ, sccs)
        bad = {
            i for i in terminal
            if any(
                not predicate(graph.configuration_of(key))
                for key in sccs[i]
            )
        }
        if bad:
            # Which damaged roots reach a bad terminal SCC?
            bad_keys = {key for i in bad for key in sccs[i]}
            reach_bad: set[CanonKey] = set(bad_keys)
            pred_map: dict[CanonKey, set[CanonKey]] = {}
            for key, children in graph.succ.items():
                for child in children:
                    pred_map.setdefault(child, set()).add(key)
            frontier = deque(bad_keys)
            while frontier:
                key = frontier.popleft()
                for parent in pred_map.get(key, ()):
                    if parent not in reach_bad:
                        reach_bad.add(parent)
                        frontier.append(parent)
            for damaged, (stable, (u, v)) in sorted(
                damaged_roots.items(), key=repr
            ):
                if damaged not in reach_bad:
                    continue
                if len(violations) >= max_violations:
                    violations.append(Violation(
                        "edge-loss-recovery",
                        "further edge-loss violations suppressed",
                    ))
                    break
                witness = min(
                    (
                        key for key in bad_keys
                        if _reachable(graph, damaged, key)
                    ),
                    key=lambda key: graph.depth[key],
                )
                path = _shortest_path(graph, [damaged], witness)
                detail = (
                    f"deleting active edge {(u, v)} from stable "
                    f"configuration {stable[0]!r}/{stable[1]!r} leads to "
                    f"a terminal SCC violating target {target_name!r}"
                )
                violations.append(Violation(
                    "edge-loss-recovery", detail,
                    build_counterexample(
                        graph.compiled, n, path, graph.labels,
                        protocol_name=protocol.name,
                        kind="edge-loss-recovery", detail=detail,
                    ),
                ))

    return ModelCheckReport(
        protocol=protocol.name,
        n=n,
        n_configs=graph.n_configs,
        n_transitions=graph.n_transitions,
        n_sccs=len(sccs),
        n_terminal_sccs=len(terminal),
        target=target_name,
        checked=tuple(checked),
        violations=tuple(violations),
    )


def _reachable(graph: StateGraph, source: CanonKey, target: CanonKey) -> bool:
    seen = {source}
    queue = deque([source])
    while queue:
        key = queue.popleft()
        if key == target:
            return True
        for child in graph.succ.get(key, ()):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return False
