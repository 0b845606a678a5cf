"""Rule-table lints: forward reachability over the state abstraction.

The dynamic layers (engines, conformance runs, robustness sweeps) can
only show that *sampled* executions behave; these lints reason about the
rule table itself.  The abstraction is a census of what can ever occur:

* ``states`` — node states reachable from the protocol's initial
  configurations (probed over several population sizes, so doped and
  size-constrained initializations contribute their real initial
  states);
* ``pairs`` — unordered state pairs ``{a, b}`` that can share an
  **active** edge;
* ``enabled`` — rule keys (defining orientation) enabled at least once
  from the reachable census.

The fixpoint is a sound over-approximation: any state/pair/rule
reachable in a real execution on the complete interaction graph is in
the abstraction (nodes in any two reachable states can always meet over
an inactive edge; active-edge interactions are gated on the pair being
constructible).  The *drift closure* keeps the pair set sound when a
node changes state while holding other active edges: every pair
containing the old state spawns the same pair with the new state
substituted.  Protocols that declare :attr:`~repro.core.protocol.
Protocol.fault_claims` additionally close the census over their
notification hooks — a restart state only reachable *through* a crash
is reachable for a protocol that claims to survive crashes.

Findings (see :data:`LINT_CODES`) are suppressible per protocol via
:attr:`~repro.core.protocol.Protocol.lint_waivers`: a bare code waives
every finding of that code, ``"code:subject"`` waives one specific
finding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.core.protocol import (
    Distribution,
    EdgeState,
    Protocol,
    State,
    resolve,
)


class VerifyError(ReproError):
    """A verification pass could not run (not a finding/violation)."""


#: Finding codes emitted by :func:`run_lints`, in report order.
LINT_CODES = (
    "unreachable-state",
    "dead-rule",
    "effectless-rule",
    "orientation-conflict",
    "unused-leader-state",
    "missing-hook",
)

#: fault claim -> notification hook that must cover edge-capable states.
HOOKS = {"crash": "on_neighbor_crash", "edge-loss": "on_edge_loss"}

#: Population sizes probed for the initial census.  Several sizes so
#: protocols with size constraints (``n = 2k`` layouts, tape lengths)
#: and size-dependent doping all contribute their true initial states.
CENSUS_POPULATIONS = (2, 3, 4, 5, 6, 7, 8, 9, 12, 16)

RuleKey = tuple[State, State, EdgeState]


@dataclass(frozen=True)
class Finding:
    """One lint finding."""

    code: str
    subject: str
    detail: str

    @property
    def waiver_key(self) -> str:
        """The ``"code:subject"`` string that waives exactly this
        finding via ``lint_waivers``."""
        return f"{self.code}:{self.subject}"

    def __str__(self) -> str:
        return f"{self.code} {self.subject}: {self.detail}"


@dataclass(frozen=True)
class Abstraction:
    """The reachable census: states, active-edge pairs, enabled rules."""

    states: frozenset
    pairs: frozenset
    enabled: frozenset

    @property
    def edge_capable(self) -> frozenset:
        """States that can hold at least one active edge."""
        capable = set()
        for pair in self.pairs:
            capable.update(pair)
        return frozenset(capable)


@dataclass(frozen=True)
class LintReport:
    """Outcome of :func:`run_lints` on one protocol."""

    protocol: str
    findings: tuple[Finding, ...]
    waived: tuple[Finding, ...]
    abstraction: Abstraction
    declared_states: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        head = (
            f"{self.protocol}: |Q|={self.declared_states}, "
            f"reachable={len(self.abstraction.states)}, "
            f"edge pairs={len(self.abstraction.pairs)}, "
            f"enabled rules={len(self.abstraction.enabled)}"
        )
        if self.ok and not self.waived:
            return f"{head} — clean"
        lines = [head]
        for finding in self.findings:
            lines.append(f"  FINDING {finding}")
        for finding in self.waived:
            lines.append(f"  waived  {finding}")
        return "\n".join(lines)


def _initial_census(protocol: Protocol) -> tuple[set, set]:
    """Node states and active-edge state pairs over every accepted
    census population."""
    states: set = set()
    pairs: set = set()
    accepted = 0
    for n in CENSUS_POPULATIONS:
        try:
            config = protocol.initial_configuration(n)
        except ReproError:
            continue
        accepted += 1
        states.update(config.state(u) for u in range(config.n))
        for u, v in config.active_edges():
            pairs.add(frozenset((config.state(u), config.state(v))))
    if not accepted:
        raise VerifyError(
            f"{protocol.name} accepted no census population "
            f"{CENSUS_POPULATIONS}; cannot seed the reachability fixpoint"
        )
    return states, pairs


def _drift(pairs: set, old: State, new: State) -> bool:
    """Close the pair set over one node's state change ``old -> new``:
    the node may hold other active edges, so every pair containing
    ``old`` also exists with ``new`` substituted."""
    added = False
    for pair in list(pairs):
        if old not in pair:
            continue
        partners = [s for s in pair if s != old] or [old]
        for partner in partners:
            candidate = frozenset((new, partner))
            if candidate not in pairs:
                pairs.add(candidate)
                added = True
    return added


def reachable_abstraction(protocol: Protocol) -> Abstraction:
    """The forward-reachability fixpoint over the state abstraction."""
    if protocol.states is None:
        raise VerifyError(
            f"{protocol.name} has no enumerable state set (states=None); "
            "rule-table lints need a declared Q"
        )
    reached, pairs = _initial_census(protocol)
    enabled: set = set()
    hooks = [
        getattr(protocol, HOOKS[claim])
        for claim in protocol.fault_claims
        if claim in HOOKS
    ]
    changed = True
    while changed:
        changed = False
        for a in sorted(reached, key=repr):
            for b in sorted(reached, key=repr):
                for c in (0, 1):
                    if c == 1 and frozenset((a, b)) not in pairs:
                        continue
                    resolved = resolve(protocol, a, b, c)
                    if resolved is None:
                        continue
                    dist, swapped = resolved
                    key = (b, a, c) if swapped else (a, b, c)
                    if key not in enabled:
                        enabled.add(key)
                        changed = True
                    for _, out in dist:
                        na, nb = (out.b, out.a) if swapped else (out.a, out.b)
                        for s in (na, nb):
                            if s not in reached:
                                reached.add(s)
                                changed = True
                        if out.edge == 1:
                            pair = frozenset((na, nb))
                            if pair not in pairs:
                                pairs.add(pair)
                                changed = True
                        for old, new in ((a, na), (b, nb)):
                            if old != new:
                                changed |= _drift(pairs, old, new)
        # Claimed fault families also move states: a crash/cut victim's
        # neighbor jumps through the hook while keeping its other edges.
        for hook in hooks:
            for s in sorted(reached, key=repr):
                ns = hook(s)
                if ns is None or ns == s:
                    continue
                if ns not in reached:
                    reached.add(ns)
                    changed = True
                changed |= _drift(pairs, s, ns)
    return Abstraction(frozenset(reached), frozenset(pairs), frozenset(enabled))


def _rule_subject(key: RuleKey) -> str:
    a, b, c = key
    return f"({a!r}, {b!r}, {c})"


def dist_key(
    dist: Distribution, swapped: bool
) -> tuple[tuple[float, str, str, EdgeState], ...]:
    """Orientation-normalized comparable form of a distribution: equal
    for ``delta(a, b, c)`` (``swapped=False``) and ``delta(b, a, c)``
    (``swapped=True``) when the two orientations agree.  The
    orientation-conflict lint and the conformance kit's rule-table
    check compare by it."""
    rounded = []
    for prob, out in dist:
        a, b = (out.b, out.a) if swapped else (out.a, out.b)
        rounded.append((round(prob, 9), repr(a), repr(b), out.edge))
    return tuple(sorted(rounded))


def run_lints(protocol: Protocol) -> LintReport:
    """Run every rule-table lint; waived findings are reported
    separately and do not fail the report."""
    abstraction = reachable_abstraction(protocol)
    assert protocol.states is not None  # reachable_abstraction guards
    findings: list[Finding] = []

    for state in sorted(protocol.states - abstraction.states, key=repr):
        findings.append(Finding(
            "unreachable-state", repr(state),
            "declared in Q but unreachable from every initial census "
            "(fault-claim hook transitions included)",
        ))

    rules = protocol.rules() if isinstance_table(protocol) else None
    if rules is not None:
        for key in sorted(rules, key=repr):
            dist = rules[key]
            if all(out.as_triple() == key for _, out in dist):
                findings.append(Finding(
                    "effectless-rule", _rule_subject(key),
                    "every outcome is the identity — the rule can never "
                    "change anything",
                ))
            elif key not in abstraction.enabled:
                findings.append(Finding(
                    "dead-rule", _rule_subject(key),
                    "never enabled from any reachable census",
                ))

    states_sorted = sorted(protocol.states, key=repr)
    for i, a in enumerate(states_sorted):
        for b in states_sorted[i + 1:]:
            for c in (0, 1):
                try:
                    forward = protocol.delta(a, b, c)
                    backward = protocol.delta(b, a, c)
                except Exception as exc:
                    raise VerifyError(
                        f"{protocol.name}.delta raised at "
                        f"({a!r}, {b!r}, {c}): {exc}"
                    ) from exc
                if forward is None or backward is None:
                    continue
                if dist_key(forward, False) != dist_key(backward, True):
                    findings.append(Finding(
                        "orientation-conflict", _rule_subject((a, b, c)),
                        "delta is defined at both orientations and the "
                        "definitions disagree under the swap",
                    ))

    if protocol.leader_states:
        for state in sorted(protocol.leader_states, key=repr):
            if state not in abstraction.states:
                findings.append(Finding(
                    "unused-leader-state", repr(state),
                    "declared in leader_states but unreachable — the "
                    "targeted scheduler and byzantine impersonation can "
                    "never observe it",
                ))

    edge_capable = abstraction.edge_capable
    for claim in protocol.fault_claims:
        hook_name = HOOKS.get(claim)
        if hook_name is None:
            findings.append(Finding(
                "missing-hook", claim,
                f"unknown fault claim; known claims: {sorted(HOOKS)}",
            ))
            continue
        hook = getattr(protocol, hook_name)
        for state in sorted(edge_capable, key=repr):
            if hook(state) is None:
                findings.append(Finding(
                    "missing-hook", f"{claim}:{state!r}",
                    f"{hook_name} returns None for edge-capable state "
                    f"{state!r} although the protocol claims to survive "
                    f"{claim!r} faults",
                ))

    waivers = frozenset(protocol.lint_waivers)
    reported = tuple(
        f for f in findings
        if f.code not in waivers and f.waiver_key not in waivers
    )
    waived = tuple(
        f for f in findings
        if f.code in waivers or f.waiver_key in waivers
    )
    return LintReport(
        protocol=protocol.name,
        findings=reported,
        waived=waived,
        abstraction=abstraction,
        declared_states=len(protocol.states),
    )


def isinstance_table(protocol: Protocol) -> bool:
    """True when the protocol exposes an explicit rule table."""
    from repro.core.protocol import TableProtocol

    return isinstance(protocol, TableProtocol)
