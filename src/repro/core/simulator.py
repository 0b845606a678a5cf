"""Simulation engines for network constructors.

Three engines share identical interaction semantics; under the uniform
random scheduler they sample the **same distribution** over executions
(verified by the distributional-equivalence tests), so the choice is a
performance/flexibility trade-off.

Engine-selection guide
----------------------
* :class:`SequentialSimulator` — the reference implementation: one
  scheduler pick per step, **any** :class:`~repro.core.scheduler.Scheduler`
  (round-robin, scripted, adversarial...).  O(1) per scheduler step but
  walks every ineffective step, so it needs a finite ``max_steps``; use
  it when you need a non-uniform scheduler or a ground-truth check.
* :class:`IndexedSimulator` — the default production engine (used by
  :func:`run_to_convergence`) for the uniform random scheduler.  It
  skips the ineffective steps with one ``Geometric(k/m) - 1`` draw
  (``k`` effective pairs out of ``m`` alive pairs) and keeps a
  class-level census of the effective pairs
  (:class:`~repro.core.indexing.PairClassIndex`): candidate pairs are
  grouped by their state-class triple ``(a, b, c)``, non-edge pairs are
  counted combinatorially from per-state node counts, active edges are
  indexed per class, and an effective interaction is sampled by drawing
  a class proportional to its pair count and then a uniform pair within
  it.  Together with the interned/memoized rule table of
  :meth:`~repro.core.protocol.Protocol.compile`, upkeep per effective
  interaction costs the effective classes touching the changed states
  plus the degree of the changed nodes — O(1) amortized for the paper's
  constant-state protocols — instead of O(n).
* ``count`` (:class:`~repro.core.counting.CountSimulator`) — the indexed
  engine below a population threshold, a census-only tau-leaping
  sampler above it (see :mod:`repro.core.counting`).

Use :func:`make_engine` over the :data:`ENGINES` registry
(``"sequential"``, ``"indexed"``, ``"count"``) to select an engine by
name in CLIs and experiment runners.  All engines measure the paper's
convergence time: the last step at which the output graph changed
(``RunResult.convergence_time``).

One run loop
------------
All three engines share one run loop, :meth:`_ExactEngine.run`.  It
owns the clock: the fault plan and its
:class:`~repro.core.trace.FaultFrame` s, the horizon gate, the jump over
idle stretches and quiescence, the step budget, the certificate poll
every ``check_interval`` advances, the
:class:`~repro.core.trace.RunMeta` and the :class:`RunResult`.  An
engine supplies a *walk* (:class:`_Walk`), built afresh per run around
its own state — a copied configuration, or a census:

* ``advance(steps, fault_next, max_steps)`` moves the clock to the next
  applied change, or stops it first at the next fault step, at the
  budget, or where no alive pair can change anything.  The sequential
  walk takes one scheduler pick at a time and applies it with
  :func:`apply_interaction`; the indexed walk
  (:meth:`~repro.core.indexing.PairClassIndex.walk`) draws a geometric
  skip, then a class, then a pair, and applies the compiled rule; the
  count engine's census walk takes one tau-leap, which may apply many
  interactions or, when every firing was an identity, none.  The
  indexed walk may also run through changes that leave the census as
  it was while the certificate's False answer on it stands (see
  :meth:`_ExactEngine.run`); it reports how many, and the step of the
  last, and the loop counts each as if it had been returned.
* ``faults(plan, step)`` applies the plan's actions at one step.  The
  exact walks share one dispatch (:func:`_exact_walk`): it keeps the
  dead nodes and the ascending alive list the plan draws victims from,
  and calls the walk's ``crash``, ``cut``, ``corrupt``, ``arrive`` and
  ``revive``, which keep the engine's own view in step (the scheduler's
  pair stream, or the class census).  The census walk applies crashes
  and joins to its counts.
* ``certificate()``, ``counts()``, ``active_edges()`` and
  ``final(steps)`` read the walk's state: whether the stabilization
  certificate holds, the census the frames carry, and the final
  configuration.

Scenario support
----------------
Engines are *capability-aware*: each class declares ``supports(scenario)``
(see :mod:`repro.core.scenario`).  The indexed engine requires the
uniform random scheduler — its geometric skips encode its law — while
the sequential engine drives any registered scheduler.  Both apply
**fault injection** between scheduler picks: every engine accepts a
``faults`` tuple of :class:`~repro.core.faults.FaultModel` s, compiled
per run into a step-indexed :class:`~repro.core.faults.FaultPlan`.  The
indexed engine caps its geometric skips at the plan's next event, so
fault timing is exact without walking the skipped steps.  Crashed nodes
move to the :data:`~repro.core.faults.DEAD` sentinel state, lose their
edges, and leave the candidate pairs; scheduler steps count picks among
*alive* pairs only, identically in all engines.  Each surviving neighbor
of a crash victim is notified through
:meth:`~repro.core.protocol.Protocol.on_neighbor_crash` (the minimal
strengthening of Fault Tolerant Network Constructors 2019) — a no-op
for ordinary protocols, the repair trigger for fault-aware ones.
Environment edge deletions (``cut``/``edge-drop``/``edge-rate``)
likewise notify both endpoints through
:meth:`~repro.core.protocol.Protocol.on_edge_loss`; *silent* cuts
(byzantine edge-flag lies) and ``corrupt`` state lies (see
:class:`~repro.core.faults.ByzantineFaults`) bypass the hooks.
**Adaptive schedulers** (``targeted:aim=...``) read the live
configuration: the sequential engine hands them the evolving
configuration and protocol when binding the pair stream, and the
indexed engine declines such scenarios via ``supports()``.  A fault
that changes the configuration counts as an output-graph change (it
removes nodes or active edges), so ``convergence_time`` measures the
*restabilization* time of the surviving population.

**Dynamic populations.**  The ``arrive``, ``recover`` and ``churn``
fault models grow or shrink the alive population mid-run.  Arriving
nodes are appended to the configuration in the protocol's initial state
(:meth:`Configuration.add_node`) and recovering nodes leave ``DEAD`` for
the initial state; the sequential walk re-binds the scheduler's pair
stream to the new population size, and the indexed walk files the nodes
into its ``PairClassIndex`` census.  Stabilization gates on the plan's
*population horizon*: a certificate holding before a scheduled arrival
or recovery does not end the run, and quiescence is never declared
while a population-mutating plan has pending events (a joining node
can create effective pairs out of nothing).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

from repro.core.configuration import Configuration
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.faults import DEAD, FaultModel, compile_fault_plan
from repro.core.indexing import (
    _APPLIED, _APPLIED_OUTPUT, _AT_BUDGET, _AT_FAULT, _IDLE, _MOVED, PairClassIndex,
)
from repro.core.protocol import Protocol, resolve, sample_outcome
from repro.core.scenario import DEFAULT_SCENARIO, resolve_engine
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


def apply_interaction(
    protocol: Protocol,
    config: Configuration,
    u: int,
    v: int,
    rng: random.Random,
    step: int = 0,
) -> Event | None:
    """Apply one interaction between nodes ``u`` and ``v`` in place.

    Implements the full Section 3.1 semantics: partial-function
    orientation resolution, probabilistic outcome sampling (PREL), and the
    equiprobable symmetry breaking for ``(a, a, c) -> (a', b', c')`` rules
    with ``a' != b'``.  Returns the :class:`~repro.core.trace.Event` of
    the change, or ``None`` when the interaction changed nothing.
    """
    if u == v:
        raise SimulationError(f"node {u} cannot interact with itself")
    a, b = config.state(u), config.state(v)
    c = config.edge_state(u, v)
    resolved = resolve(protocol, a, b, c)
    if resolved is None:
        return None
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
        return None
    if u_changed:
        config.set_state(u, new_u)
    if v_changed:
        config.set_state(v, new_v)
    if edge_changed:
        config.set_edge(u, v, new_edge)
    return Event(step, u, v, a, new_u, b, new_v, c, new_edge)


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


def _output_affected(protocol: Protocol, event: Event) -> bool:
    """Did this interaction possibly change the output graph G(C)?  (A
    state that did not change cannot flip its output membership.)"""
    out = protocol.output_states
    if out is None:
        return event.edge_changed
    return (
        (event.u_before in out) != (event.u_after in out)
        or (event.v_before in out) != (event.v_after in out)
        # Conservative: an edge touching at least one output node counts
        # only if both endpoints are output nodes.
        or (event.edge_changed
            and event.u_after in out and event.v_after in out)
    )


class _Walk(NamedTuple):
    """What an engine supplies to the shared run loop (see the module
    docstring)."""

    #: ``(steps, fault_next, max_steps) -> (steps, reached, applied,
    #: passed, passed_at)``: ``applied`` is the number of interactions
    #: that changed something at the step that stopped the clock (1 per
    #: applied change on the exact walks); ``passed`` is the number of
    #: changes the walk ran through before it without returning (see
    #: :meth:`_ExactEngine.run`), the last of them at step ``passed_at``.
    advance: Callable[[int, Any, Any], tuple[int, int, int, int, int]]
    #: ``(plan, step) -> kinds``: apply the plan's actions at ``step``;
    #: the kinds of all its actions if any changed something, else ``()``.
    faults: Callable[[Any, int], tuple[str, ...]]
    #: Does the stabilization certificate hold now?
    certificate: Callable[[], Any]
    #: The state histogram, ``DEAD`` included.
    counts: Callable[[], dict]
    #: The number of active edges.
    active_edges: Callable[[], int]
    #: ``steps -> configuration``: the run's final configuration.
    final: Callable[[int], Configuration]


def _exact_walk(
    cfg: Configuration, certificate, dead: set[int],
    advance, crash, cut, corrupt, arrive, revive,
) -> _Walk:
    """An exact engine's walk over ``cfg``: its ``advance``, its
    certificate and one method per fault kind behind the fault dispatch
    both exact engines share.

    The dispatch passes the methods only alive nodes and edges active
    between alive nodes.  It keeps the crashed nodes in ``dead`` and,
    from the first death on, the alive ids in one ascending list, which
    the plan picks its victims from (a ``range`` while no node is dead):
    a crash or a revival moves one id by bisection, an arrival appends.
    """
    alive: list[int] = []

    def faults(plan, at: int) -> tuple[str, ...]:
        changed = False
        kinds: list[str] = []
        for action in plan.actions_at(at, cfg, alive if dead else range(cfg.n)):
            kinds.append(action.kind)
            if action.kind == "crash":
                for w in action.nodes:
                    if w not in dead:
                        if not dead:
                            alive[:] = range(cfg.n)
                        crash(w)
                        dead.add(w)
                        del alive[bisect_left(alive, w)]
                        changed = True
            elif action.kind == "cut":
                for a, b in action.edges:
                    if a not in dead and b not in dead and cfg.edge_state(a, b):
                        cut(a, b, action.silent)
                        changed = True
            elif action.kind == "corrupt":
                for w, claim in zip(action.nodes, action.states):
                    if w not in dead and cfg.state(w) != claim:
                        corrupt(w, claim)
                        changed = True
            elif action.kind == "arrive":
                first = cfg.n
                arrive(action.count)
                if dead:
                    alive.extend(range(first, cfg.n))
                changed = True
            else:  # revive
                revived = [w for w in action.nodes if w in dead]
                if revived:
                    dead.difference_update(revived)
                    if dead:
                        for w in revived:
                            insort(alive, w)
                    revive(revived)
                    changed = True
        return tuple(kinds) if changed else ()

    return _Walk(
        advance, faults, certificate, cfg.state_counts,
        lambda: cfg.n_active_edges, lambda steps: cfg,
    )


class _ExactEngine:
    """The run loop every engine shares; a subclass supplies one
    :class:`_Walk` per run through ``_walk``.

    Parameters
    ----------
    seed:
        Seed for the engine-owned random streams.
    faults:
        Fault models applied between scheduler picks (compiled per run).
    """

    #: Registry name, stamped into :class:`~repro.core.trace.RunMeta`.
    engine_name = ""

    def __init__(
        self,
        seed: int | None = None,
        faults: tuple[FaultModel, ...] = (),
    ) -> None:
        self.seed = seed
        self.faults = tuple(faults)

    def _start(
        self,
        protocol: Protocol,
        n: int,
        config: Configuration | None,
        copy_config: bool,
    ) -> tuple[Configuration, random.Random]:
        """An exact walk's own state: the configuration it evolves and
        the seeded :class:`random.Random` it draws from."""
        if config is None:
            cfg = protocol.initial_configuration(n)
        else:
            cfg = config.copy() if copy_config else config
        return cfg, random.Random(self.seed)

    def _walk(
        self,
        protocol: Protocol,
        n: int,
        config: Configuration | None,
        copy_config: bool,
        publish,
        stabilized: StopPredicate,
        max_steps: int | None,
    ) -> _Walk:
        raise NotImplementedError

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
        copy_config: bool = True,
    ) -> RunResult:
        """Run until the protocol stabilizes, nothing can change any
        more, or ``max_steps`` scheduler steps have elapsed.

        The protocol's ``stabilized`` certificate (or the ``stop``
        override) is polled every ``check_interval`` advances of the
        walk (an applied change on the exact engines, a leap on the
        count engine's census walk; an ``int`` >= 1) and after every
        fault.  It must be a function of the configuration it is
        handed, and it is not asked again while the census it answered
        False on stands: the indexed walk over a table that may swap two
        states (:attr:`~repro.core.protocol.CompiledProtocol.swaps`)
        asks it through a view offering only ``n``, ``n_active_edges``
        and ``count_in_state``, and while that answer is False it runs
        through each change that swaps two nodes' states over an edge
        left as it was, without returning here.  Each such change counts
        as an advance, and a poll due on it is skipped.  A certificate
        that reads more raises ``AttributeError`` on the view, and is
        asked on the configuration after every change for the rest of
        the run.  ``require_convergence`` raises
        :class:`ConvergenceError` when the budget runs out.
        ``copy_config=False`` evolves the caller's configuration in
        place (used when running several protocol phases over one
        population).  A run needs ``n`` >= 2 nodes; a given ``config``
        must hold ``n`` nodes, none of them ``DEAD`` (the clock counts
        picks among alive pairs from the first step; a fault crashes).
        """
        if type(check_interval) is not int or check_interval < 1:
            raise SimulationError(
                f"check_interval must be an integer >= 1, "
                f"got {check_interval!r}"
            )
        if n < 2:
            raise SimulationError(f"need at least 2 nodes to interact, got {n}")
        if config is not None and config.n != n:
            raise SimulationError(f"configuration has {config.n} nodes, expected {n}")
        if config is not None and config.count_in_state(DEAD):
            raise SimulationError(
                f"configuration holds {config.count_in_state(DEAD)} {DEAD} "
                "node(s); start every node alive, crash nodes with a fault"
            )
        stabilized = stop if stop is not None else protocol.stabilized
        publish = merge_sinks(trace, bus)
        walk = self._walk(
            protocol, n, config, copy_config, publish, stabilized, max_steps
        )
        advance, apply_faults, certificate, counts, active_edges, final = walk
        if publish is not None:
            publish.run_started(RunMeta(
                protocol.name, n, self.engine_name, counts(), active_edges(),
            ))

        plan = compile_fault_plan(self.faults, n, self.seed, protocol)
        fault_next = plan.next_step(-1) if plan is not None else None
        horizon = plan.horizon if plan is not None else -1

        def drain(steps: int) -> bool:
            """Apply every fault due at or before ``steps``."""
            nonlocal fault_next
            changed = False
            while fault_next is not None and fault_next <= steps:
                kinds = apply_faults(plan, fault_next)
                if kinds:
                    changed = True
                    if publish is not None:
                        publish.fault(FaultFrame(
                            fault_next, kinds, counts(), active_edges(),
                        ))
                fault_next = plan.next_step(fault_next)
            return changed

        steps = 0
        effective = 0
        last_change = 0
        last_output_change = 0
        since_check = 0

        drain(0)  # faults due before the first pick
        reason = "stabilized" if certificate() and steps >= horizon else None
        while reason is None:
            if fault_next is not None and fault_next <= steps:
                if drain(steps):
                    last_change = steps
                    last_output_change = steps
                # Re-check even for a no-op fault: the certificate may
                # have held for a while, suppressed only by the horizon
                # gate, and no further effective step may come to
                # re-trigger the poll below.
                if steps >= horizon and certificate():
                    reason = "stabilized"
                    break
            steps, reached, applied, passed, passed_at = advance(
                steps, fault_next, max_steps
            )
            if passed:
                # Changes the walk ran through: each counts as returned,
                # and a poll due on one would have met the False that
                # stands, so it is skipped.
                effective += passed
                last_change = passed_at
                since_check = (since_check + passed) % check_interval
            if reached <= _MOVED:
                if applied:
                    effective += applied
                    last_change = steps
                    if reached == _APPLIED_OUTPUT:
                        last_output_change = steps
                since_check += 1
                if since_check >= check_interval:
                    since_check = 0
                    if certificate() and steps >= horizon and (
                        fault_next is None or fault_next > steps
                    ):
                        reason = "stabilized"
            elif reached == _IDLE:
                if fault_next is None or not (
                    horizon > steps
                    or active_edges() > 0
                    or plan.mutates_population
                ):
                    reason = "quiescent"
                # Nothing can change before the next fault event: jump
                # the clock straight to it.  Population-mutating plans
                # always warrant the jump — an arrival can create
                # effective pairs out of nothing.
                elif max_steps is not None and fault_next > max_steps:
                    steps = max_steps
                    reason = "max_steps"
                else:
                    steps = fault_next
            elif reached == _AT_BUDGET:
                reason = "max_steps"
        if reason == "max_steps" and require_convergence:
            raise ConvergenceError(
                f"{protocol.name} did not stabilize within {max_steps} steps "
                f"(n={n})", steps,
            )
        return RunResult(
            reason != "max_steps", steps, effective, last_change,
            last_output_change, final(steps), reason, trace,
        )


class SequentialSimulator(_ExactEngine):
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
        super().__init__(seed, faults)
        self.scheduler = scheduler or UniformRandomScheduler()

    engine_name = "sequential"

    @classmethod
    def supports(cls, scenario) -> bool:
        """The reference engine drives every scenario (it walks each
        scheduler pick), at the price of a finite ``max_steps`` budget."""
        return True

    def _walk(
        self, protocol, n, config, copy_config, publish, stabilized, max_steps
    ) -> _Walk:
        cfg, rng = self._start(protocol, n, config, copy_config)
        if max_steps is None:
            raise SimulationError(
                "the sequential engine walks every step and needs a finite "
                "max_steps budget"
            )
        scheduler = self.scheduler
        adaptive = getattr(scheduler, "adaptive", False)
        stream = None
        dead: set[int] = set()

        def advance(steps, fault_next, max_steps):
            nonlocal stream
            if stream is None:
                # Bound lazily, so the stream draws over the population
                # as it stands after the faults at step 0 and after each
                # arrival.
                if adaptive:
                    stream = scheduler.pairs(
                        cfg.n, rng, config=cfg, protocol=protocol
                    )
                else:
                    stream = scheduler.pairs(cfg.n, rng)
            while steps < max_steps:
                if dead and cfg.n - len(dead) < 2:
                    return steps, _IDLE, 0, 0, 0
                u, v = next(stream)
                if dead and (u in dead or v in dead):
                    # Crashed nodes left the interaction graph: this
                    # pick is redrawn without counting a step, so the
                    # clock counts picks among alive pairs only — as in
                    # every engine.
                    continue
                steps += 1
                event = apply_interaction(protocol, cfg, u, v, rng, steps)
                if event is not None:
                    if publish is not None:
                        publish.interaction(event, cfg)
                    if _output_affected(protocol, event):
                        return steps, _APPLIED_OUTPUT, 1, 0, 0
                    return steps, _APPLIED, 1, 0, 0
                if fault_next is not None and fault_next <= steps:
                    return steps, _AT_FAULT, 0, 0, 0
            return steps, _AT_BUDGET, 0, 0, 0

        def renotify(x: int, hook) -> None:
            new_state = hook(cfg.state(x))
            if new_state is not None:
                cfg.set_state(x, new_state)

        def crash(w: int) -> None:
            for x in list(cfg.neighbors(w)):
                cfg.set_edge(w, x, 0)
                renotify(x, protocol.on_neighbor_crash)
            cfg.set_state(w, DEAD)

        def cut(a: int, b: int, silent: bool) -> None:
            cfg.set_edge(a, b, 0)
            if not silent:
                renotify(a, protocol.on_edge_loss)
                renotify(b, protocol.on_edge_loss)

        def arrive(count: int) -> None:
            nonlocal stream
            for _ in range(count):
                cfg.add_node(_join_state(protocol))
            stream = None

        def revive(nodes: list) -> None:
            for w in nodes:
                cfg.set_state(w, _join_state(protocol))

        return _exact_walk(
            cfg, partial(stabilized, cfg), dead, advance, crash, cut,
            cfg.set_state, arrive, revive,
        )


class IndexedSimulator(_ExactEngine):
    """State-indexed event-driven engine for the uniform random scheduler.

    Distributionally identical to :class:`SequentialSimulator` under the
    uniform random scheduler: the step counter advances by a
    ``Geometric(k/m) - 1`` skip, and the two-stage class-then-pair draw
    is exactly a uniform draw over the effective pairs.  The walk is
    :meth:`~repro.core.indexing.PairClassIndex.walk`, over an index built
    on the run's configuration; the fault upkeep here moves nodes through
    the index's one mover, its ``move_node``.
    """

    engine_name = "indexed"

    # Defined in this class body (not only inherited) so tooling can
    # wrap the indexed engine's run alone, e.g. to time it.
    run = _ExactEngine.run

    @classmethod
    def supports(cls, scenario) -> bool:
        """Event-driven: requires the uniform random scheduler (the
        geometric skip encodes its law); faults and initial-configuration
        overrides are fine."""
        return scenario.uses_uniform_scheduler

    def _walk(
        self, protocol, n, config, copy_config, publish, stabilized, max_steps
    ) -> _Walk:
        cfg, rng = self._start(protocol, n, config, copy_config)
        index = PairClassIndex(protocol.compile(), cfg)
        advance, certificate, resize, wake = index.walk(
            rng, protocol, publish, stabilized
        )
        intern = index.table.intern
        raw_of = index.table._states
        sid = index.sid

        def renotify(x: int, new_state, dirty: set) -> None:
            if new_state is None:
                return
            new_id = intern(new_state)
            if new_id != sid[x]:
                dirty.add(sid[x])
                dirty.add(new_id)
                index.move_node(x, sid[x], new_id)

        def crash(w: int) -> None:
            sw = sid[w]
            nbrs = list(cfg._adj[w])  # engine-internal: its set order
            for x in nbrs:
                index.remove_edge(w, x, sw, sid[x])
                cfg.set_edge(w, x, 0)
            index.remove_node(w, sw)
            cfg.set_state(w, DEAD)
            dirty = {sw}
            for x in nbrs:
                renotify(x, protocol.on_neighbor_crash(raw_of[sid[x]]), dirty)
            index.refresh_involving(dirty)
            resize(-1)

        def cut(a: int, b: int, silent: bool) -> None:
            index.remove_edge(a, b, sid[a], sid[b])
            cfg.set_edge(a, b, 0)
            dirty = {sid[a], sid[b]}
            if not silent:
                for x in (a, b):
                    renotify(x, protocol.on_edge_loss(raw_of[sid[x]]), dirty)
            index.refresh_involving(dirty)

        def corrupt(w: int, claim) -> None:
            new_id = intern(claim)
            dirty = {sid[w], new_id}
            index.move_node(w, sid[w], new_id)
            index.refresh_involving(dirty)

        def arrive(count: int) -> None:
            s_join = intern(_join_state(protocol))
            for _ in range(count):
                u_new = cfg.add_node(_join_state(protocol))
                sid.append(s_join)
                index.add_node(u_new, s_join)
            index.refresh_involving({s_join})
            resize(count)

        def revive(nodes: list) -> None:
            s_join = intern(_join_state(protocol))
            for w in nodes:
                cfg.set_state(w, _join_state(protocol))
                sid[w] = s_join
                index.add_node(w, s_join)
            index.refresh_involving({s_join})
            resize(len(nodes))

        walk = _exact_walk(
            cfg, certificate, set(), advance, crash, cut, corrupt, arrive, revive
        )

        def faults(plan, at: int) -> tuple[str, ...]:
            wake()  # a fault may change the census
            return walk.faults(plan, at)

        return walk._replace(faults=faults)


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
    "indexed": IndexedSimulator,
}


def engine_class(engine: str) -> type:
    """The :data:`ENGINES` class registered under ``engine``."""
    try:
        return ENGINES[engine]
    except KeyError:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
        ) from None


def make_engine(engine: str, seed: int | None = None, scenario=None):
    """Instantiate an engine by name, wired for ``scenario`` when one is
    given: its fault models, and its scheduler on the sequential engine.
    An engine that does not support the scenario is refused;
    :func:`~repro.core.scenario.resolve_engine` picks one that does.

    >>> from repro.core.scenario import Scenario
    >>> sim = make_engine("sequential", 3, Scenario(scheduler="round-robin"))
    >>> type(sim).__name__, type(sim.scheduler).__name__
    ('SequentialSimulator', 'RoundRobinScheduler')
    >>> make_engine("count", 3, Scenario(faults="cut:edges=0-1,at=5"))
    Traceback (most recent call last):
        ...
    repro.core.errors.SimulationError: engine 'count' does not support scenario (scheduler=uniform faults=cut:at=5,edges=0-1); use resolve_engine() first
    """
    cls = engine_class(engine)
    if scenario is None:
        return cls(seed=seed)
    if not cls.supports(scenario):
        raise SimulationError(
            f"engine {engine!r} does not support scenario "
            f"({scenario.describe()}); use resolve_engine() first"
        )
    faults = scenario.make_faults()
    if cls is SequentialSimulator:
        return cls(scenario.make_scheduler(), seed=seed, faults=faults)
    return cls(seed=seed, faults=faults)


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


def _execute(
    protocol: Protocol,
    n: int,
    *,
    engine: str,
    seed: int | None,
    max_steps: int | None,
    scenario=None,
    check_interval: int = 1,
    trace: Trace | None = None,
    bus: TraceBus | None = None,
    warn: bool = True,
    raise_on_budget: bool = True,
) -> RunResult:
    """Resolve, build and run one engine, then publish ``run_finished``:
    the one dispatch path of every driver.

    The engine is resolved through ``supports(scenario)`` (warning on a
    fallback when ``warn``), built for the scenario, and run from the
    scenario's initial configuration (``None`` for the protocol's own
    start, which the count engine turns into an O(1) census).  Only the
    default scenario raises :class:`ConvergenceError` when a finite
    ``max_steps`` runs out, and only when ``raise_on_budget``; any other
    scenario's result says ``converged=False`` instead.
    """
    if scenario is None:
        scenario = DEFAULT_SCENARIO
    engine = resolve_engine(engine, scenario, warn=warn)
    result = make_engine(engine, seed, scenario).run(
        protocol,
        n,
        max_steps,
        config=scenario.build_initial(protocol, n),
        trace=trace,
        bus=bus,
        check_interval=check_interval,
        require_convergence=(
            raise_on_budget and max_steps is not None and scenario.is_default
        ),
    )
    if bus is not None:
        # Engines publish start/interaction/census/fault; the driver
        # owns the terminal summary (one site instead of one per return).
        bus.run_finished(run_summary(result))
    return result


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
    return _execute(
        protocol, n, engine=engine, seed=seed, max_steps=max_steps,
        scenario=scenario, check_interval=check_interval, trace=trace,
        bus=bus,
    )


# Imported last so the two modules can reference each other: counting.py
# subclasses IndexedSimulator and registers the "count" engine in
# ENGINES at its own import time, whichever module is imported first.
from repro.core import counting as _counting  # noqa: E402,F401
