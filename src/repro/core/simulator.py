"""Simulation engines for network constructors.

Three engines share identical interaction semantics; under the uniform
random scheduler all three sample the **same distribution** over
executions (verified by the distributional-equivalence tests), so the
choice is purely a performance/flexibility trade-off.

Engine-selection guide
----------------------
* :class:`SequentialSimulator` — the reference implementation: one
  scheduler pick per step, **any** :class:`~repro.core.scheduler.Scheduler`
  (round-robin, scripted, adversarial...).  O(1) per scheduler step but
  walks every ineffective step; use it when you need a non-uniform
  scheduler or a ground-truth check.
* :class:`AgitatedSimulator` — event-driven engine for the uniform random
  scheduler.  Maintains the set of *effective* pairs explicitly and skips
  ineffective steps with a geometric draw, but rescans all ``n - 1``
  partners of a node whenever its state changes: O(n) per effective
  interaction.  Kept as the independently-coded cross-check for the
  indexed engine.
* :class:`IndexedSimulator` — the default production engine (used by
  :func:`run_to_convergence`).  Replaces per-pair bookkeeping with a
  class-level census (:class:`~repro.core.indexing.PairClassIndex`):
  candidate pairs are grouped by their state-class triple ``(a, b, c)``,
  non-edge pairs are counted combinatorially from per-state node counts,
  active edges are indexed per class, and an effective interaction is
  sampled by drawing a class proportional to its pair count and then a
  uniform pair within it.  Together with the interned/memoized rule table
  of :meth:`~repro.core.protocol.Protocol.compile`, maintenance per
  effective interaction costs the effective classes touching the changed
  states plus the degree of the changed nodes — O(1) amortized for the
  paper's constant-state protocols — instead of O(n).

Use the :data:`ENGINES` registry (``"sequential"``, ``"agitated"``,
``"indexed"``) to select an engine by name in CLIs and experiment
runners.  All engines measure the paper's convergence time: the last step
at which the output graph changed (``RunResult.convergence_time``).

Scenario support
----------------
Engines are *capability-aware*: each class declares ``supports(scenario)``
(see :mod:`repro.core.scenario`).  The event-driven engines require the
uniform random scheduler — their geometric skips encode its law — while
the sequential engine drives any registered scheduler.  All three apply
**fault injection** between scheduler picks: every engine accepts a
``faults`` tuple of :class:`~repro.core.faults.FaultModel` s, compiled
per run into a step-indexed :class:`~repro.core.faults.FaultPlan`.  The
event-driven engines cap their geometric skips at the plan's next event,
so fault timing is exact without walking the skipped steps.  Crashed
nodes move to the :data:`~repro.core.faults.DEAD` sentinel state, lose
their edges, and leave the candidate-pair census; scheduler steps count
picks among *alive* pairs only, identically in all engines.  Each
surviving neighbor of a crash victim is notified through
:meth:`~repro.core.protocol.Protocol.on_neighbor_crash` (the minimal
strengthening of Fault Tolerant Network Constructors 2019) — a no-op
for ordinary protocols, the repair trigger for fault-aware ones.
Environment edge deletions (``cut``/``edge-drop``/``edge-rate``)
likewise notify both endpoints through
:meth:`~repro.core.protocol.Protocol.on_edge_loss`, identically in all
three engines; *silent* cuts (byzantine edge-flag lies) and
``corrupt`` state lies (see
:class:`~repro.core.faults.ByzantineFaults`) bypass the hooks.
**Adaptive schedulers** (``targeted:aim=...``) read the live
configuration: the sequential engine hands them the evolving
configuration and protocol when binding the pair stream, and the
event-driven engines decline such scenarios via ``supports()``.  A
fault that changes the configuration counts as an output-graph change
(it removes nodes or active edges), so ``convergence_time`` measures
the *restabilization* time of the surviving population.

**Dynamic populations.**  The ``arrive``, ``recover`` and ``churn``
fault models grow or shrink the alive population mid-run.  All three
engines handle the population events identically: arriving nodes are
appended to the configuration in the protocol's initial state
(:meth:`Configuration.add_node`), recovering nodes leave ``DEAD`` for
the initial state, and every engine re-derives its pair counts at the
event — the sequential engine re-binds the scheduler's pair stream to
the new population size, the agitated engine rescans the new node's
partners, and the indexed engine files the node into its
``PairClassIndex`` census.  Stabilization gates on the plan's
*population horizon*: a certificate holding before a scheduled arrival
or recovery does not end the run, and quiescence is never declared
while a population-mutating plan has pending events (a joining node
can create effective pairs out of nothing).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.core.configuration import Configuration
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.faults import DEAD, FaultModel, compile_fault_plan
from repro.core.indexing import IndexedSet, PairClassIndex
from repro.core.protocol import Protocol, resolve, sample_outcome
from repro.core.scheduler import Scheduler, UniformRandomScheduler
from repro.core.trace import (
    Event,
    FaultFrame,
    RunMeta,
    Trace,
    TraceBus,
    merge_sinks,
)

StopPredicate = Callable[[Configuration], bool]


def _join_state(protocol: Protocol):
    """The state in which arriving/recovering nodes join the run."""
    state = protocol.initial_state
    if state is None:
        raise SimulationError(
            f"{protocol.name} declares no initial_state; population events "
            "(arrive/churn/recover) need one to initialize joining nodes"
        )
    return state


@dataclass(frozen=True)
class InteractionResult:
    """What one applied interaction changed."""

    changed: bool
    u_state_changed: bool
    v_state_changed: bool
    edge_changed: bool
    event: Event | None = None


def apply_interaction(
    protocol: Protocol,
    config: Configuration,
    u: int,
    v: int,
    rng: random.Random,
    step: int = 0,
) -> InteractionResult:
    """Apply one interaction between nodes ``u`` and ``v`` in place.

    Implements the full Section 3.1 semantics: partial-function
    orientation resolution, probabilistic outcome sampling (PREL), and the
    equiprobable symmetry breaking for ``(a, a, c) -> (a', b', c')`` rules
    with ``a' != b'``.
    """
    if u == v:
        raise SimulationError(f"node {u} cannot interact with itself")
    a, b = config.state(u), config.state(v)
    c = config.edge_state(u, v)
    resolved = resolve(protocol, a, b, c)
    if resolved is None:
        return InteractionResult(False, False, False, False)
    dist, swapped = resolved
    outcome = sample_outcome(dist, rng)
    if swapped:
        new_u, new_v = outcome.b, outcome.a
    else:
        new_u, new_v = outcome.a, outcome.b
    if a == b and new_u != new_v:
        # The single genuinely symmetric case: both nodes in the same state
        # receiving distinct new states — the assignment is a fair coin.
        if rng.random() < 0.5:
            new_u, new_v = new_v, new_u
    new_edge = outcome.edge
    u_changed = new_u != a
    v_changed = new_v != b
    edge_changed = new_edge != c
    if not (u_changed or v_changed or edge_changed):
        return InteractionResult(False, False, False, False)
    if u_changed:
        config.set_state(u, new_u)
    if v_changed:
        config.set_state(v, new_v)
    if edge_changed:
        config.set_edge(u, v, new_edge)
    event = Event(step, u, v, a, new_u, b, new_v, c, new_edge)
    return InteractionResult(True, u_changed, v_changed, edge_changed, event)


@dataclass
class RunResult:
    """Outcome of a simulation run.

    Attributes
    ----------
    converged:
        True when the run ended because the protocol stabilized (its
        :meth:`~repro.core.protocol.Protocol.stabilized` certificate held or
        no effective pair remained), rather than by exhausting the budget.
    steps:
        Total scheduler steps elapsed (including ineffective ones).
    effective_steps:
        Number of applied interactions that changed something.
    last_change_step:
        Step index of the last change of any kind (node state or edge).
    last_output_change_step:
        Step index of the last change to the *output graph* — the paper's
        running time / time to convergence.
    config:
        Final configuration.
    stop_reason:
        One of ``"stabilized"``, ``"quiescent"``, ``"max_steps"``.
    trace:
        The recorded trace if one was requested.
    """

    converged: bool
    steps: int
    effective_steps: int
    last_change_step: int
    last_output_change_step: int
    config: Configuration
    stop_reason: str
    trace: Trace | None = None

    @property
    def convergence_time(self) -> int:
        """The paper's running time: min t s.t. the output graph is fixed
        from step t onward.  Meaningful when ``converged`` is True."""
        return self.last_output_change_step


def _output_affected(
    protocol: Protocol, result: InteractionResult, event: Event
) -> bool:
    """Did this interaction possibly change the output graph G(C)?"""
    out = protocol.output_states
    if out is None:
        return result.edge_changed
    if result.u_state_changed and (
        (event.u_before in out) != (event.u_after in out)
    ):
        return True
    if result.v_state_changed and (
        (event.v_before in out) != (event.v_after in out)
    ):
        return True
    if result.edge_changed:
        # Conservative: an edge touching at least one output node counts
        # only if both endpoints are output nodes.
        return event.u_after in out and event.v_after in out
    return False


class SequentialSimulator:
    """Reference engine: one scheduler pick per step.

    Parameters
    ----------
    scheduler:
        Any fair scheduler; defaults to the uniform random scheduler.
    seed:
        Seed for the engine-owned :class:`random.Random`.
    faults:
        Fault models applied between scheduler picks (compiled per run).
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        seed: int | None = None,
        faults: tuple[FaultModel, ...] = (),
    ) -> None:
        self.scheduler = scheduler or UniformRandomScheduler()
        self.seed = seed
        self.faults = tuple(faults)

    #: Registry name, stamped into :class:`~repro.core.trace.RunMeta`.
    engine_name = "sequential"

    @classmethod
    def supports(cls, scenario) -> bool:
        """The reference engine drives every scenario (it walks each
        scheduler pick), at the price of a finite ``max_steps`` budget."""
        return True

    def run(
        self,
        protocol: Protocol,
        n: int,
        max_steps: int,
        *,
        config: Configuration | None = None,
        stop: StopPredicate | None = None,
        trace: Trace | None = None,
        bus: TraceBus | None = None,
        check_interval: int = 1,
        require_convergence: bool = False,
        copy_config: bool = True,
    ) -> RunResult:
        """Run for at most ``max_steps`` steps.

        Stops early when the protocol's ``stabilized`` certificate (or the
        ``stop`` override) holds.  ``check_interval`` throttles how often
        the certificate is evaluated (in effective steps).
        ``copy_config=False`` evolves the caller's configuration in place
        (used when running several protocol phases over one population).
        """
        if max_steps is None:
            raise SimulationError(
                "the sequential engine walks every step and needs a finite "
                "max_steps budget"
            )
        rng = random.Random(self.seed)
        if config is None:
            cfg = protocol.initial_configuration(n)
        else:
            cfg = config.copy() if copy_config else config
        if cfg.n != n:
            raise SimulationError(f"configuration has {cfg.n} nodes, expected {n}")
        stabilized = stop if stop is not None else protocol.stabilized
        steps = 0
        effective = 0
        last_change = 0
        last_output_change = 0
        since_check = 0

        publish = merge_sinks(trace, bus)
        if publish is not None:
            publish.run_started(RunMeta(
                protocol.name, n, self.engine_name,
                dict(cfg.state_counts()), cfg.n_active_edges,
            ))

        plan = compile_fault_plan(self.faults, n, self.seed, protocol)
        dead: set[int] = set()
        fault_next = plan.next_step(-1) if plan is not None else None
        horizon = plan.horizon if plan is not None else -1
        stream_stale = False
        notify = protocol.on_neighbor_crash
        notify_loss = protocol.on_edge_loss
        adaptive = getattr(self.scheduler, "adaptive", False)

        def bind_stream():
            if adaptive:
                return self.scheduler.pairs(
                    n, rng, config=cfg, protocol=protocol
                )
            return self.scheduler.pairs(n, rng)

        def apply_fault_actions(at: int) -> bool:
            nonlocal n, stream_stale
            changed = False
            kinds: list[str] = []
            alive = [u for u in range(n) if u not in dead]
            for action in plan.actions_at(at, cfg, alive):
                kinds.append(action.kind)
                if action.kind == "crash":
                    for w in action.nodes:
                        if w in dead:
                            continue
                        for x in list(cfg.neighbors(w)):
                            cfg.set_edge(w, x, 0)
                            new_state = notify(cfg.state(x))
                            if new_state is not None:
                                cfg.set_state(x, new_state)
                        cfg.set_state(w, DEAD)
                        dead.add(w)
                        changed = True
                elif action.kind == "cut":
                    for a, b in action.edges:
                        if a in dead or b in dead:
                            continue
                        if cfg.edge_state(a, b):
                            cfg.set_edge(a, b, 0)
                            if not action.silent:
                                for x in (a, b):
                                    new_state = notify_loss(cfg.state(x))
                                    if new_state is not None:
                                        cfg.set_state(x, new_state)
                            changed = True
                elif action.kind == "corrupt":
                    for w, claim in zip(action.nodes, action.states):
                        if w in dead:
                            continue
                        if cfg.state(w) != claim:
                            cfg.set_state(w, claim)
                            changed = True
                elif action.kind == "arrive":
                    for _ in range(action.count):
                        cfg.add_node(_join_state(protocol))
                    n = cfg.n
                    stream_stale = True
                    changed = True
                else:  # revive
                    for w in action.nodes:
                        if w in dead:
                            cfg.set_state(w, _join_state(protocol))
                            dead.discard(w)
                            changed = True
            if changed and publish is not None:
                publish.fault(FaultFrame(
                    at, tuple(kinds),
                    dict(cfg.state_counts()), cfg.n_active_edges,
                ))
            return changed

        def drain_faults() -> bool:
            """Apply every event due at or before ``steps``; re-bind the
            scheduler's pair stream if the population grew."""
            nonlocal fault_next, pair_stream, stream_stale
            changed = False
            while fault_next is not None and fault_next <= steps:
                changed |= apply_fault_actions(fault_next)
                fault_next = plan.next_step(fault_next)
            if stream_stale:
                pair_stream = bind_stream()
                stream_stale = False
            return changed

        # Faults due before the first pick (at=0 crashes, arrivals etc.).
        while fault_next is not None and fault_next <= 0:
            apply_fault_actions(fault_next)
            fault_next = plan.next_step(fault_next)
        stream_stale = False

        if stabilized(cfg) and steps >= horizon:
            return RunResult(True, 0, 0, 0, 0, cfg, "stabilized", trace)
        pair_stream = bind_stream()
        while steps < max_steps:
            if dead and n - len(dead) < 2:
                if (
                    plan is not None
                    and plan.mutates_population
                    and fault_next is not None
                ):
                    # No alive pair can advance the clock; jump it
                    # straight to the next population event.
                    if fault_next > max_steps:
                        steps = max_steps
                        break
                    steps = fault_next
                    if drain_faults():
                        last_change = steps
                        last_output_change = steps
                    if steps >= horizon and stabilized(cfg) and (
                        fault_next is None or fault_next > steps
                    ):
                        return RunResult(
                            True, steps, effective, last_change,
                            last_output_change, cfg, "stabilized", trace,
                        )
                    continue
                return RunResult(
                    True, steps, effective, last_change,
                    last_output_change, cfg, "quiescent", trace,
                )
            u, v = next(pair_stream)
            if dead and (u in dead or v in dead):
                # Crashed nodes left the interaction graph: this pick
                # is redrawn without counting a step, so the clock
                # counts picks among alive pairs only — as in every
                # engine.
                continue
            steps += 1
            result = apply_interaction(protocol, cfg, u, v, rng, steps)
            if result.changed:
                effective += 1
                last_change = steps
                assert result.event is not None
                if _output_affected(protocol, result, result.event):
                    last_output_change = steps
                if publish is not None:
                    publish.interaction(result.event, cfg)
                since_check += 1
            if fault_next is not None and fault_next <= steps:
                if drain_faults():
                    last_change = steps
                    last_output_change = steps
                # Re-check even for a no-op fault: the certificate may
                # have held for a while, suppressed only by the horizon
                # gate, and no further effective step may come to
                # re-trigger the since_check path.
                if steps >= horizon and stabilized(cfg):
                    return RunResult(
                        True, steps, effective, last_change,
                        last_output_change, cfg, "stabilized", trace,
                    )
            if since_check >= check_interval:
                since_check = 0
                if stabilized(cfg) and steps >= horizon and (
                    fault_next is None or fault_next > steps
                ):
                    return RunResult(
                        True, steps, effective, last_change,
                        last_output_change, cfg, "stabilized", trace,
                    )
        if require_convergence:
            raise ConvergenceError(
                f"{protocol.name} did not stabilize within {max_steps} steps "
                f"(n={n})", steps,
            )
        return RunResult(
            False, steps, effective, last_change, last_output_change, cfg,
            "max_steps", trace,
        )


#: Backwards-compatible alias: the indexable pair set now lives in
#: :mod:`repro.core.indexing`.
_EffectiveSet = IndexedSet


class AgitatedSimulator:
    """Event-driven engine for the uniform random scheduler.

    Maintains the set of effective pairs; each iteration advances the step
    counter by ``Geometric(p) - 1`` skipped ineffective steps with
    ``p = |effective| / m`` and then applies a uniformly chosen effective
    pair — exactly the law of the uniform random scheduler restricted to
    its effective picks.
    """

    def __init__(
        self,
        seed: int | None = None,
        faults: tuple[FaultModel, ...] = (),
    ) -> None:
        self.seed = seed
        self.faults = tuple(faults)

    #: Registry name, stamped into :class:`~repro.core.trace.RunMeta`.
    engine_name = "agitated"

    @classmethod
    def supports(cls, scenario) -> bool:
        """Event-driven: requires the uniform random scheduler (the
        geometric skip encodes its law); faults and initial-configuration
        overrides are fine."""
        return scenario.uses_uniform_scheduler

    def run(
        self,
        protocol: Protocol,
        n: int,
        max_steps: int | None = None,
        *,
        config: Configuration | None = None,
        stop: StopPredicate | None = None,
        trace: Trace | None = None,
        bus: TraceBus | None = None,
        check_interval: int = 1,
        require_convergence: bool = False,
        max_effective_steps: int | None = None,
        copy_config: bool = True,
    ) -> RunResult:
        rng = random.Random(self.seed)
        if config is None:
            cfg = protocol.initial_configuration(n)
        else:
            cfg = config.copy() if copy_config else config
        if cfg.n != n:
            raise SimulationError(f"configuration has {cfg.n} nodes, expected {n}")
        if n < 2:
            raise SimulationError("need at least 2 nodes")
        stabilized = stop if stop is not None else protocol.stabilized
        m = n * (n - 1) // 2
        is_effective = protocol.is_effective
        state = cfg.state
        edge_state = cfg.edge_state

        publish = merge_sinks(trace, bus)
        if publish is not None:
            publish.run_started(RunMeta(
                protocol.name, n, self.engine_name,
                dict(cfg.state_counts()), cfg.n_active_edges,
            ))

        effective_pairs = _EffectiveSet()
        for u in range(n):
            su = state(u)
            for v in range(u + 1, n):
                if is_effective(su, state(v), edge_state(u, v)):
                    effective_pairs.add((u, v))

        plan = compile_fault_plan(self.faults, n, self.seed, protocol)
        dead: set[int] = set()
        fault_next = plan.next_step(-1) if plan is not None else None
        horizon = plan.horizon if plan is not None else -1

        notify = protocol.on_neighbor_crash
        notify_loss = protocol.on_edge_loss

        def refresh_node(w: int) -> None:
            sw = state(w)
            for x in range(n):
                if x == w or (dead and x in dead):
                    continue
                pair = (w, x) if w < x else (x, w)
                if is_effective(sw, state(x), edge_state(w, x)):
                    effective_pairs.add(pair)
                else:
                    effective_pairs.discard(pair)

        def apply_fault_actions(at: int) -> bool:
            nonlocal m, n
            changed = False
            kinds: list[str] = []
            alive = [u for u in range(n) if u not in dead]
            for action in plan.actions_at(at, cfg, alive):
                kinds.append(action.kind)
                if action.kind == "crash":
                    for w in action.nodes:
                        if w in dead:
                            continue
                        nbrs = list(cfg.neighbors(w))
                        for x in nbrs:
                            cfg.set_edge(w, x, 0)
                        for x in range(n):
                            if x != w:
                                effective_pairs.discard(
                                    (w, x) if w < x else (x, w)
                                )
                        cfg.set_state(w, DEAD)
                        dead.add(w)
                        for x in nbrs:
                            new_state = notify(state(x))
                            if new_state is not None and new_state != state(x):
                                cfg.set_state(x, new_state)
                                refresh_node(x)
                        changed = True
                elif action.kind == "cut":
                    for a, b in action.edges:
                        if a in dead or b in dead or not edge_state(a, b):
                            continue
                        cfg.set_edge(a, b, 0)
                        if not action.silent:
                            for x in (a, b):
                                new_state = notify_loss(state(x))
                                if new_state is not None and new_state != state(x):
                                    cfg.set_state(x, new_state)
                        # Re-file every pair of both endpoints: the edge
                        # went inactive and either state may have moved.
                        refresh_node(a)
                        refresh_node(b)
                        changed = True
                elif action.kind == "corrupt":
                    for w, claim in zip(action.nodes, action.states):
                        if w in dead:
                            continue
                        if state(w) != claim:
                            cfg.set_state(w, claim)
                            refresh_node(w)
                            changed = True
                elif action.kind == "arrive":
                    for _ in range(action.count):
                        u_new = cfg.add_node(_join_state(protocol))
                        n = cfg.n
                        s_new = state(u_new)
                        for x in range(u_new):
                            if x in dead:
                                continue
                            if is_effective(s_new, state(x), 0):
                                effective_pairs.add((x, u_new))
                    changed = True
                else:  # revive
                    for w in action.nodes:
                        if w not in dead:
                            continue
                        cfg.set_state(w, _join_state(protocol))
                        dead.discard(w)
                        refresh_node(w)
                        changed = True
            count = n - len(dead)
            m = count * (count - 1) // 2
            if changed and publish is not None:
                publish.fault(FaultFrame(
                    at, tuple(kinds),
                    dict(cfg.state_counts()), cfg.n_active_edges,
                ))
            return changed

        steps = 0
        effective = 0
        last_change = 0
        last_output_change = 0
        since_check = 0
        log = math.log

        while fault_next is not None and fault_next <= 0:
            apply_fault_actions(fault_next)
            fault_next = plan.next_step(fault_next)

        if stabilized(cfg) and steps >= horizon:
            return RunResult(True, 0, 0, 0, 0, cfg, "stabilized", trace)

        while True:
            if fault_next is not None and fault_next <= steps:
                fault_changed = False
                while fault_next is not None and fault_next <= steps:
                    fault_changed |= apply_fault_actions(fault_next)
                    fault_next = plan.next_step(fault_next)
                if fault_changed:
                    last_change = steps
                    last_output_change = steps
                # Re-check even for a no-op fault: the certificate may
                # have been suppressed only by the horizon gate.
                if steps >= horizon and stabilized(cfg):
                    return RunResult(
                        True, steps, effective, last_change,
                        last_output_change, cfg, "stabilized", trace,
                    )
            k = len(effective_pairs)
            if k == 0:
                if fault_next is not None and (
                    horizon > steps
                    or cfg.n_active_edges > 0
                    or plan.mutates_population
                ):
                    # Nothing can change before the next fault event:
                    # jump the clock straight to it.  Population-mutating
                    # plans always warrant the jump — an arrival can
                    # create effective pairs out of nothing.
                    if max_steps is not None and fault_next > max_steps:
                        steps = max_steps
                        break
                    steps = fault_next
                    continue
                return RunResult(
                    True, steps, effective, last_change, last_output_change,
                    cfg, "quiescent", trace,
                )
            if max_effective_steps is not None and effective >= max_effective_steps:
                break
            if k == m:
                skip = 0
            else:
                # Number of failed (ineffective) picks before a success.
                p = k / m
                skip = int(log(1.0 - rng.random()) / log(1.0 - p))
            if fault_next is not None and steps + skip + 1 > fault_next:
                # A fault fires before the next effective pick; the skip
                # is memoryless, so jump to the fault and redraw.
                if max_steps is not None and fault_next > max_steps:
                    steps = max_steps
                    break
                steps = fault_next
                continue
            if max_steps is not None and steps + skip + 1 > max_steps:
                steps = max_steps
                break
            steps += skip + 1
            u, v = effective_pairs.sample(rng)
            result = apply_interaction(protocol, cfg, u, v, rng, steps)
            if not result.changed:
                # An effective pair may sample an identity outcome in a
                # probabilistic rule; the step still elapsed.
                continue
            effective += 1
            last_change = steps
            assert result.event is not None
            if _output_affected(protocol, result, result.event):
                last_output_change = steps
            if publish is not None:
                publish.interaction(result.event, cfg)
            if result.u_state_changed or result.v_state_changed:
                if result.u_state_changed:
                    refresh_node(u)
                if result.v_state_changed:
                    refresh_node(v)
            if result.edge_changed or result.u_state_changed or result.v_state_changed:
                pair = (u, v) if u < v else (v, u)
                if is_effective(state(u), state(v), edge_state(u, v)):
                    effective_pairs.add(pair)
                else:
                    effective_pairs.discard(pair)
            since_check += 1
            if since_check >= check_interval:
                since_check = 0
                if stabilized(cfg) and steps >= horizon and (
                    fault_next is None or fault_next > steps
                ):
                    return RunResult(
                        True, steps, effective, last_change,
                        last_output_change, cfg, "stabilized", trace,
                    )
        if require_convergence:
            raise ConvergenceError(
                f"{protocol.name} did not stabilize within budget (n={n})",
                steps,
            )
        return RunResult(
            False, steps, effective, last_change, last_output_change, cfg,
            "max_steps", trace,
        )


class IndexedSimulator:
    """State-indexed event-driven engine for the uniform random scheduler.

    Distributionally identical to :class:`SequentialSimulator` /
    :class:`AgitatedSimulator` under the uniform random scheduler: the
    step counter advances by the same ``Geometric(k/m) - 1`` skip, and the
    two-stage class-then-pair draw is exactly a uniform draw over the
    effective pairs.  The difference is the bookkeeping: instead of
    rescanning a changed node's ``n - 1`` partners, only the effective
    class weights touching the changed states are recomputed and the
    changed node's O(degree) incident active edges re-filed.  With no
    trace or bus attached, an effective interaction builds no ``Event``
    or ``InteractionResult``.
    """

    def __init__(
        self,
        seed: int | None = None,
        faults: tuple[FaultModel, ...] = (),
    ) -> None:
        self.seed = seed
        self.faults = tuple(faults)

    #: Registry name, stamped into :class:`~repro.core.trace.RunMeta`.
    engine_name = "indexed"

    @classmethod
    def supports(cls, scenario) -> bool:
        """Event-driven: requires the uniform random scheduler (the
        geometric skip encodes its law); faults and initial-configuration
        overrides are fine."""
        return scenario.uses_uniform_scheduler

    def run(
        self,
        protocol: Protocol,
        n: int,
        max_steps: int | None = None,
        *,
        config: Configuration | None = None,
        stop: StopPredicate | None = None,
        trace: Trace | None = None,
        bus: TraceBus | None = None,
        check_interval: int = 1,
        require_convergence: bool = False,
        max_effective_steps: int | None = None,
        copy_config: bool = True,
    ) -> RunResult:
        rng = random.Random(self.seed)
        if config is None:
            cfg = protocol.initial_configuration(n)
        else:
            cfg = config.copy() if copy_config else config
        if cfg.n != n:
            raise SimulationError(f"configuration has {cfg.n} nodes, expected {n}")
        if n < 2:
            raise SimulationError("need at least 2 nodes")
        stabilized = stop if stop is not None else protocol.stabilized
        m = n * (n - 1) // 2
        publish = merge_sinks(trace, bus)
        if publish is not None:
            publish.run_started(RunMeta(
                protocol.name, n, self.engine_name,
                dict(cfg.state_counts()), cfg.n_active_edges,
            ))
        compiled = protocol.compile()
        intern = compiled.intern
        state_of = compiled.state_of
        sid = [intern(cfg.state(u)) for u in range(n)]
        adj = cfg._adj  # engine-internal: avoids a frozenset copy per move

        index = PairClassIndex(compiled.is_effective)
        for u in range(n):
            index.add_node(u, sid[u])
        for u, v in cfg.active_edges():
            index.add_edge(u, v, sid[u], sid[v])
        index.rebuild()

        def move_node(w: int, old: int, new: int) -> None:
            cfg.set_state(w, state_of(new))
            for x in adj[w]:
                index.move_edge(w, x, old, sid[x], new)
            index.move_node(w, old, new)
            sid[w] = new

        plan = compile_fault_plan(self.faults, n, self.seed, protocol)
        dead: set[int] = set()
        fault_next = plan.next_step(-1) if plan is not None else None
        horizon = plan.horizon if plan is not None else -1

        notify = protocol.on_neighbor_crash
        notify_loss = protocol.on_edge_loss

        def apply_fault_actions(at: int) -> bool:
            nonlocal m, n
            changed = False
            kinds: list[str] = []
            alive = [u for u in range(n) if u not in dead]
            for action in plan.actions_at(at, cfg, alive):
                kinds.append(action.kind)
                if action.kind == "crash":
                    for w in action.nodes:
                        if w in dead:
                            continue
                        sw = sid[w]
                        nbrs = list(adj[w])
                        for x in nbrs:
                            index.remove_edge(w, x, sw, sid[x])
                            cfg.set_edge(w, x, 0)
                        index.remove_node(w, sw)
                        cfg.set_state(w, DEAD)
                        dead.add(w)
                        dirty = {sw}
                        for x in nbrs:
                            new_state = notify(state_of(sid[x]))
                            if new_state is None:
                                continue
                            new_id = intern(new_state)
                            if new_id != sid[x]:
                                dirty.add(sid[x])
                                dirty.add(new_id)
                                move_node(x, sid[x], new_id)
                        index.refresh_involving(dirty)
                        changed = True
                elif action.kind == "cut":
                    for a, b in action.edges:
                        if a in dead or b in dead or not cfg.edge_state(a, b):
                            continue
                        index.remove_edge(a, b, sid[a], sid[b])
                        cfg.set_edge(a, b, 0)
                        dirty = {sid[a], sid[b]}
                        if not action.silent:
                            for x in (a, b):
                                new_state = notify_loss(state_of(sid[x]))
                                if new_state is None:
                                    continue
                                new_id = intern(new_state)
                                if new_id != sid[x]:
                                    dirty.add(sid[x])
                                    dirty.add(new_id)
                                    move_node(x, sid[x], new_id)
                        index.refresh_involving(dirty)
                        changed = True
                elif action.kind == "corrupt":
                    for w, claim in zip(action.nodes, action.states):
                        if w in dead:
                            continue
                        new_id = intern(claim)
                        if new_id != sid[w]:
                            dirty = {sid[w], new_id}
                            move_node(w, sid[w], new_id)
                            index.refresh_involving(dirty)
                            changed = True
                elif action.kind == "arrive":
                    s_join = intern(_join_state(protocol))
                    for _ in range(action.count):
                        u_new = cfg.add_node(_join_state(protocol))
                        sid.append(s_join)
                        index.add_node(u_new, s_join)
                    n = cfg.n
                    index.refresh_involving({s_join})
                    changed = True
                else:  # revive
                    revived_states = set()
                    for w in action.nodes:
                        if w not in dead:
                            continue
                        s_join = intern(_join_state(protocol))
                        cfg.set_state(w, _join_state(protocol))
                        sid[w] = s_join
                        index.add_node(w, s_join)
                        dead.discard(w)
                        revived_states.add(s_join)
                        changed = True
                    if revived_states:
                        index.refresh_involving(revived_states)
            count = n - len(dead)
            m = count * (count - 1) // 2
            if changed and publish is not None:
                publish.fault(FaultFrame(
                    at, tuple(kinds),
                    dict(cfg.state_counts()), cfg.n_active_edges,
                ))
            return changed

        steps = 0
        effective = 0
        last_change = 0
        last_output_change = 0
        since_check = 0
        log = math.log
        edge_state = cfg.edge_state
        out = protocol.output_states

        while fault_next is not None and fault_next <= 0:
            apply_fault_actions(fault_next)
            fault_next = plan.next_step(fault_next)

        if stabilized(cfg) and steps >= horizon:
            return RunResult(True, 0, 0, 0, 0, cfg, "stabilized", trace)

        while True:
            if fault_next is not None and fault_next <= steps:
                fault_changed = False
                while fault_next is not None and fault_next <= steps:
                    fault_changed |= apply_fault_actions(fault_next)
                    fault_next = plan.next_step(fault_next)
                if fault_changed:
                    last_change = steps
                    last_output_change = steps
                # Re-check even for a no-op fault: the certificate may
                # have been suppressed only by the horizon gate.
                if steps >= horizon and stabilized(cfg):
                    return RunResult(
                        True, steps, effective, last_change,
                        last_output_change, cfg, "stabilized", trace,
                    )
            k = index.total
            if k == 0:
                if fault_next is not None and (
                    horizon > steps
                    or cfg.n_active_edges > 0
                    or plan.mutates_population
                ):
                    # Nothing can change before the next fault event:
                    # jump the clock straight to it.  Population-mutating
                    # plans always warrant the jump — an arrival can
                    # create effective pairs out of nothing.
                    if max_steps is not None and fault_next > max_steps:
                        steps = max_steps
                        break
                    steps = fault_next
                    continue
                return RunResult(
                    True, steps, effective, last_change, last_output_change,
                    cfg, "quiescent", trace,
                )
            if max_effective_steps is not None and effective >= max_effective_steps:
                break
            if k == m:
                skip = 0
            else:
                # Number of failed (ineffective) picks before a success.
                p = k / m
                skip = int(log(1.0 - rng.random()) / log(1.0 - p))
            if fault_next is not None and steps + skip + 1 > fault_next:
                # A fault fires before the next effective pick; the skip
                # is memoryless, so jump to the fault and redraw.
                if max_steps is not None and fault_next > max_steps:
                    steps = max_steps
                    break
                steps = fault_next
                continue
            if max_steps is not None and steps + skip + 1 > max_steps:
                steps = max_steps
                break
            steps += skip + 1

            key = index.sample_class(rng)
            u, v = index.sample_pair(key, rng, edge_state)
            su, sv = sid[u], sid[v]
            c = key[2]
            dist, swapped = compiled.resolved(su, sv, c)
            if len(dist) == 1:
                outcome = dist[0][1]
            else:
                roll = rng.random()
                acc = 0.0
                outcome = dist[-1][1]
                for prob, candidate in dist:
                    acc += prob
                    if roll < acc:
                        outcome = candidate
                        break
            if swapped:
                new_u, new_v = outcome[1], outcome[0]
            else:
                new_u, new_v = outcome[0], outcome[1]
            if su == sv and new_u != new_v and rng.random() < 0.5:
                new_u, new_v = new_v, new_u
            new_edge = outcome[2]
            u_changed = new_u != su
            v_changed = new_v != sv
            edge_changed = new_edge != c
            if not (u_changed or v_changed or edge_changed):
                # An effective class may sample an identity outcome in a
                # probabilistic rule; the step still elapsed.
                continue

            if u_changed:
                move_node(u, su, new_u)
            if v_changed:
                move_node(v, sv, new_v)
            if edge_changed:
                cfg.set_edge(u, v, new_edge)
                if new_edge:
                    index.add_edge(u, v, sid[u], sid[v])
                else:
                    index.remove_edge(u, v, sid[u], sid[v])
            if u_changed or v_changed:
                dirty = set()
                if u_changed:
                    dirty.add(su)
                    dirty.add(new_u)
                if v_changed:
                    dirty.add(sv)
                    dirty.add(new_v)
                index.refresh_involving(dirty)
            else:
                index.refresh_pair(sid[u], sid[v])

            effective += 1
            last_change = steps
            # _output_affected, without the per-step Event and
            # InteractionResult it takes.
            if out is None:
                if edge_changed:
                    last_output_change = steps
            elif (
                (u_changed
                 and (state_of(su) in out) != (state_of(new_u) in out))
                or (v_changed
                    and (state_of(sv) in out) != (state_of(new_v) in out))
                or (edge_changed
                    and state_of(new_u) in out and state_of(new_v) in out)
            ):
                last_output_change = steps
            if publish is not None:
                publish.interaction(Event(
                    steps, u, v,
                    state_of(su), state_of(new_u),
                    state_of(sv), state_of(new_v),
                    c, new_edge,
                ), cfg)
            since_check += 1
            if since_check >= check_interval:
                since_check = 0
                if stabilized(cfg) and steps >= horizon and (
                    fault_next is None or fault_next > steps
                ):
                    return RunResult(
                        True, steps, effective, last_change,
                        last_output_change, cfg, "stabilized", trace,
                    )
        if require_convergence:
            raise ConvergenceError(
                f"{protocol.name} did not stabilize within budget (n={n})",
                steps,
            )
        return RunResult(
            False, steps, effective, last_change, last_output_change, cfg,
            "max_steps", trace,
        )


#: Engine registry: name -> engine class taking ``seed=`` and
#: ``faults=``.  The sequential engine additionally accepts a
#: ``scheduler`` and requires a finite ``max_steps`` budget.  Every
#: class declares ``supports(scenario)`` for capability-aware routing
#: (see :func:`repro.core.scenario.resolve_engine`).  The ``count``
#: engine registers itself from :mod:`repro.core.counting` (imported at
#: the bottom of this module), keeping the census/tau-leap machinery out
#: of this file while `ENGINES` stays the single registry.
ENGINES: dict[str, type] = {
    "sequential": SequentialSimulator,
    "agitated": AgitatedSimulator,
    "indexed": IndexedSimulator,
}


def make_engine(engine: str, seed: int | None = None):
    """Instantiate an engine from the :data:`ENGINES` registry by name."""
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
        ) from None
    return cls(seed=seed)


def run_summary(result: RunResult) -> dict:
    """The JSON-able terminal summary a driver publishes as the bus's
    ``run_finished`` payload."""
    return {
        "converged": result.converged,
        "steps": result.steps,
        "effective": result.effective_steps,
        "last_change": result.last_change_step,
        "last_output_change": result.last_output_change_step,
        "stop_reason": result.stop_reason,
    }


def run_to_convergence(
    protocol: Protocol,
    n: int,
    *,
    seed: int | None = None,
    max_steps: int | None = None,
    trace: Trace | None = None,
    bus: TraceBus | None = None,
    check_interval: int = 1,
    engine: str = "indexed",
    scenario=None,
) -> RunResult:
    """Convenience wrapper: run an engine (the state-indexed one by
    default) until the protocol stabilizes (raises
    :class:`ConvergenceError` if a finite ``max_steps`` budget is
    exhausted first).

    ``scenario`` selects the environment (scheduler, faults, initial
    configuration; see :mod:`repro.core.scenario`).  If the requested
    engine does not support the scenario the run is routed to a
    supporting engine — with a warning — instead of silently assuming
    the uniform random scheduler; scenario runs never raise on budget
    exhaustion (the record says ``converged=False`` instead).
    """
    if scenario is None or scenario.is_default:
        sim = make_engine(engine, seed=seed)
        config = None
        require_convergence = max_steps is not None
    else:
        from repro.core.scenario import make_scenario_engine, resolve_engine

        engine = resolve_engine(engine, scenario)
        sim = make_scenario_engine(engine, seed, scenario)
        config = scenario.build_initial(protocol, n)
        require_convergence = False
    result = sim.run(
        protocol,
        n,
        max_steps,
        config=config,
        trace=trace,
        bus=bus,
        check_interval=check_interval,
        require_convergence=require_convergence,
    )
    if bus is not None:
        # Engines publish start/interaction/census/fault; the driver
        # owns the terminal summary (one site instead of one per return).
        bus.run_finished(run_summary(result))
    return result


# Imported last so the two modules can reference each other: counting.py
# subclasses IndexedSimulator and registers the "count" engine in
# ENGINES at its own import time, whichever module is imported first.
from repro.core import counting as _counting  # noqa: E402,F401
