"""Execution traces, snapshots, and the streaming observability bus.

Two layers live here:

* :class:`Trace` — the original storage recorder: effective interactions
  (ineffective steps change nothing, so the step index of each event
  suffices to reconstruct the full schedule's effect) plus optional
  configuration snapshots at chosen milestones, used by the figure
  benchmarks (e.g. the three stages of Figure 1).

* :class:`TraceBus` — the streaming side: a per-run publish/subscribe
  bus every engine publishes to.  The exact engines (``sequential``,
  ``indexed``) publish one :class:`Event` per effective
  interaction; the ``count`` engine's tau-leap regime publishes
  *sampled* :class:`CensusFrame` s instead (one census per applied
  leap batch, throttled), so observability composes with leaping
  instead of disabling it.  Fault injections publish
  :class:`FaultFrame` s carrying a fresh census — fault-induced state
  changes bypass the interaction path, so subscribers resynchronize
  from these.

A :class:`Trace` *is* a valid bus sink (``interaction`` aliases
``record``), and engines fold ``trace=`` and ``bus=`` into one publish
target via :func:`merge_sinks` — the hot loop pays exactly one ``is not
None`` check per effective event, same as the trace-only code before.

Downstream, :class:`CensusTracker` folds bus traffic into a live state
census, :class:`FrameAdapter` turns it into JSON-able dict frames (the
SSE wire shape of :mod:`repro.service` and ``repro-net watch``), and
:class:`FrameLog` is the thread-safe frame buffer SSE consumers follow.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.configuration import Configuration
from repro.core.protocol import State


@dataclass(frozen=True)
class Event:
    """One applied interaction that changed something.

    ``step`` is the 1-based global step index (including skipped
    ineffective steps); ``u_before/u_after`` etc. describe the change.
    """

    step: int
    u: int
    v: int
    u_before: State
    u_after: State
    v_before: State
    v_after: State
    edge_before: int
    edge_after: int

    @property
    def edge_changed(self) -> bool:
        return self.edge_before != self.edge_after

    @property
    def activated(self) -> bool:
        return self.edge_before == 0 and self.edge_after == 1

    @property
    def deactivated(self) -> bool:
        return self.edge_before == 1 and self.edge_after == 0


@dataclass(frozen=True)
class RunMeta:
    """Published once at run start: what is running and where it starts.

    ``census`` maps each starting state to its count (``DEAD`` included
    when a prior phase left corpses); ``n_edges`` is the starting active
    edge count.
    """

    protocol: str
    n: int
    engine: str
    census: dict
    n_edges: int


@dataclass(frozen=True)
class CensusFrame:
    """A sampled snapshot of the live state census.

    The count engine's leap regime emits these directly (census is its
    native representation); for the exact engines
    :class:`CensusTracker` derives them from the event stream.
    ``effective`` is the cumulative effective-step count at ``step``.
    """

    step: int
    counts: dict
    n_edges: int
    effective: int


@dataclass(frozen=True)
class FaultFrame:
    """A fault injection at ``step``: the action kinds applied and the
    fresh post-fault census (fault-induced state changes bypass the
    interaction path, so subscribers resync from this)."""

    step: int
    kinds: tuple
    counts: dict
    n_edges: int


class TraceTruncationWarning(UserWarning):
    """A query ran on a trace that dropped events past ``max_events``."""


@dataclass
class Trace:
    """Recorded history of an execution.

    Parameters
    ----------
    snapshot_predicate:
        Optional callable ``(step, config) -> bool``; when true after an
        event, a deep copy of the configuration is stored in
        :attr:`snapshots`.
    max_events:
        Safety cap on stored events (0 = unlimited).  Events past the
        cap are counted in :attr:`dropped` (and flagged by
        :attr:`truncated`) instead of vanishing silently; queries over
        the stored prefix warn when the cap was hit.
    """

    snapshot_predicate: Callable[[int, Configuration], bool] | None = None
    max_events: int = 0
    events: list[Event] = field(default_factory=list)
    snapshots: list[tuple[int, Configuration]] = field(default_factory=list)
    dropped: int = 0

    def record(self, event: Event, config: Configuration) -> None:
        if not self.max_events or len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1
        if self.snapshot_predicate is not None and self.snapshot_predicate(
            event.step, config
        ):
            self.snapshots.append((event.step, config.copy()))

    @property
    def truncated(self) -> bool:
        """Whether any event was dropped at the ``max_events`` cap —
        queries then see a prefix of the execution, not all of it."""
        return self.dropped > 0

    def _warn_if_truncated(self) -> None:
        if self.dropped:
            warnings.warn(
                f"trace hit max_events={self.max_events}: {self.dropped} "
                "later events were dropped, so this query covers a prefix "
                "of the execution only",
                TraceTruncationWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------
    # Convenience queries used by tests and benchmarks
    # ------------------------------------------------------------------
    def edge_events(self) -> list[Event]:
        self._warn_if_truncated()
        return [e for e in self.events if e.edge_changed]

    def activations(self) -> list[Event]:
        self._warn_if_truncated()
        return [e for e in self.events if e.activated]

    def deactivations(self) -> list[Event]:
        self._warn_if_truncated()
        return [e for e in self.events if e.deactivated]

    def last_edge_change_step(self) -> int:
        self._warn_if_truncated()
        edge_events = [e for e in self.events if e.edge_changed]
        return edge_events[-1].step if edge_events else 0

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Bus-sink protocol: a Trace is a valid publish target, so engines
    # fold trace= and bus= into one hot-loop check (merge_sinks).
    # ------------------------------------------------------------------
    interaction = record

    def run_started(self, meta: RunMeta) -> None:
        pass

    def census(self, frame: CensusFrame) -> None:
        pass

    def fault(self, frame: FaultFrame) -> None:
        pass

    def run_finished(self, summary: dict) -> None:
        pass


class BusSubscriber:
    """No-op base for bus subscribers: override the hooks you need."""

    def on_run_started(self, meta: RunMeta) -> None:
        pass

    def on_event(self, event: Event, config) -> None:
        pass

    def on_census(self, frame: CensusFrame) -> None:
        pass

    def on_fault(self, frame: FaultFrame) -> None:
        pass

    def on_run_finished(self, summary: dict) -> None:
        pass


class TraceBus:
    """Streaming publish/subscribe channel for one (or more) runs.

    Engines publish; any number of subscribers (census trackers, frame
    adapters, test probes) observe.  Publishing with zero subscribers is
    a no-op loop — engines that are handed no bus at all skip the calls
    entirely, so the unobserved hot path is unchanged.
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: list[Any] = []

    def subscribe(self, subscriber):
        """Attach ``subscriber`` (any object with the
        :class:`BusSubscriber` hooks); returns it for chaining."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber) -> None:
        self._subscribers.remove(subscriber)

    # -- publish side (called by engines / drivers) --------------------
    def run_started(self, meta: RunMeta) -> None:
        for sub in self._subscribers:
            sub.on_run_started(meta)

    def interaction(self, event: Event, config) -> None:
        for sub in self._subscribers:
            sub.on_event(event, config)

    def census(self, frame: CensusFrame) -> None:
        for sub in self._subscribers:
            sub.on_census(frame)

    def fault(self, frame: FaultFrame) -> None:
        for sub in self._subscribers:
            sub.on_fault(frame)

    def run_finished(self, summary: dict) -> None:
        for sub in self._subscribers:
            sub.on_run_finished(summary)


class _Fanout:
    """Publish target forwarding to both a Trace and a TraceBus."""

    __slots__ = ("_sinks",)

    def __init__(self, *sinks) -> None:
        self._sinks = sinks

    def run_started(self, meta: RunMeta) -> None:
        for s in self._sinks:
            s.run_started(meta)

    def interaction(self, event: Event, config) -> None:
        for s in self._sinks:
            s.interaction(event, config)

    def census(self, frame: CensusFrame) -> None:
        for s in self._sinks:
            s.census(frame)

    def fault(self, frame: FaultFrame) -> None:
        for s in self._sinks:
            s.fault(frame)

    def run_finished(self, summary: dict) -> None:
        for s in self._sinks:
            s.run_finished(summary)


def merge_sinks(trace: Trace | None, bus: TraceBus | None):
    """The single per-run publish target an engine holds: ``None`` when
    nothing observes the run (the hot loop then skips publishing with
    one ``is not None`` check), otherwise the trace, the bus, or a
    fanout over both."""
    if trace is None:
        return bus
    if bus is None:
        return trace
    return _Fanout(trace, bus)


class CensusTracker(BusSubscriber):
    """Folds bus traffic into a live ``{state: count}`` census and emits
    sampled :class:`CensusFrame` s to ``emit``.

    ``interval`` is the minimum number of scheduler steps between
    emitted frames (0 = every update); ``None`` auto-scales to the
    population size at run start.  Count-engine census frames and fault
    frames replace the tracked census wholesale (they carry authoritative
    counts) and always emit.
    """

    def __init__(
        self,
        emit: Callable[[CensusFrame], None],
        interval: int | None = None,
    ) -> None:
        self.emit = emit
        self.interval = interval
        self.counts: dict = {}
        self.n_edges = 0
        self.effective = 0
        self._stride = interval if interval is not None else 1
        self._last_emit = -1

    def _move(self, before, after) -> None:
        if before == after:
            return
        c = self.counts
        left = c.get(before, 0) - 1
        if left > 0:
            c[before] = left
        else:
            c.pop(before, None)
        c[after] = c.get(after, 0) + 1

    def _emit(self, step: int) -> None:
        self._last_emit = step
        self.emit(
            CensusFrame(step, dict(self.counts), self.n_edges, self.effective)
        )

    def on_run_started(self, meta: RunMeta) -> None:
        self.counts = dict(meta.census)
        self.n_edges = meta.n_edges
        self.effective = 0
        if self.interval is None:
            self._stride = max(1, meta.n)
        self._last_emit = -1
        self._emit(0)

    def on_event(self, event: Event, config) -> None:
        self._move(event.u_before, event.u_after)
        self._move(event.v_before, event.v_after)
        self.n_edges += event.edge_after - event.edge_before
        self.effective += 1
        if event.step - self._last_emit >= self._stride:
            self._emit(event.step)

    def on_census(self, frame: CensusFrame) -> None:
        # The count engine's leap regime already samples; forward as-is.
        self.counts = dict(frame.counts)
        self.n_edges = frame.n_edges
        self.effective = frame.effective
        self._emit(frame.step)

    def on_fault(self, frame: FaultFrame) -> None:
        # Fault-induced changes bypass interaction events: resync.
        self.counts = dict(frame.counts)
        self.n_edges = frame.n_edges
        self._emit(frame.step)


def _json_counts(counts: dict) -> dict:
    """Census counts with JSON-safe (string) state keys."""
    return {str(s): c for s, c in counts.items()}


class FrameAdapter(BusSubscriber):
    """Bus traffic → JSON-able dict frames (the SSE wire shape).

    Frames carry a ``"type"`` key: ``meta``, ``census``, ``fault`` and
    ``run-end``; ``extra`` keys (e.g. trial coordinates) are merged into
    every frame.  Census sampling is delegated to an internal
    :class:`CensusTracker` with the given ``interval``.
    """

    def __init__(
        self,
        emit: Callable[[dict], None],
        interval: int | None = None,
        extra: dict | None = None,
    ) -> None:
        self._emit_raw = emit
        self._extra = dict(extra or {})
        self._tracker = CensusTracker(self._census, interval)

    def _emit(self, frame: dict) -> None:
        if self._extra:
            frame.update(self._extra)
        self._emit_raw(frame)

    def _census(self, frame: CensusFrame) -> None:
        self._emit({
            "type": "census",
            "step": frame.step,
            "counts": _json_counts(frame.counts),
            "edges": frame.n_edges,
            "effective": frame.effective,
        })

    def on_run_started(self, meta: RunMeta) -> None:
        self._emit({
            "type": "meta",
            "protocol": meta.protocol,
            "n": meta.n,
            "engine": meta.engine,
        })
        self._tracker.on_run_started(meta)

    def on_event(self, event: Event, config) -> None:
        self._tracker.on_event(event, config)

    def on_census(self, frame: CensusFrame) -> None:
        self._tracker.on_census(frame)

    def on_fault(self, frame: FaultFrame) -> None:
        self._emit({
            "type": "fault",
            "step": frame.step,
            "kinds": list(frame.kinds),
            "counts": _json_counts(frame.counts),
            "edges": frame.n_edges,
        })
        self._tracker.on_fault(frame)

    def on_run_finished(self, summary: dict) -> None:
        self._emit({"type": "run-end", **summary})


class FrameLog:
    """Thread-safe append-only log of dict frames with blocking follow
    reads — the buffer between bus publishers (engine threads, the job
    service loop) and SSE consumers (HTTP handler threads).

    ``max_frames`` caps retained *data* frames, mirroring
    :class:`Trace`'s cap semantics: overflow increments :attr:`dropped`
    instead of silently vanishing, and control frames (status/terminal
    markers published with ``control=True``) always get through.
    :attr:`watched` is true while at least one :meth:`follow` iterator
    is live — publishers can use it to pay for census sampling only
    when someone is actually looking.
    """

    def __init__(self, max_frames: int = 10_000) -> None:
        self.max_frames = max_frames
        self.dropped = 0
        self._frames: list[dict] = []
        self._cond = threading.Condition()
        self._closed = False
        self._watchers = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def watched(self) -> bool:
        return self._watchers > 0

    def publish(self, frame: dict, *, control: bool = False) -> None:
        with self._cond:
            if self._closed:
                return
            if (
                not control
                and self.max_frames
                and len(self._frames) >= self.max_frames
            ):
                self.dropped += 1
                return
            self._frames.append(frame)
            self._cond.notify_all()

    def close(self) -> None:
        """Mark the stream complete: followers drain and stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def frames(self) -> list[dict]:
        """Snapshot of everything published so far."""
        with self._cond:
            return list(self._frames)

    def next_frames(
        self, start: int, timeout: float | None = None
    ) -> tuple[list[dict], int, bool]:
        """Frames from index ``start`` on, blocking up to ``timeout``
        for news; returns ``(chunk, next_index, closed)``."""
        with self._cond:
            if start >= len(self._frames) and not self._closed:
                self._cond.wait(timeout)
            chunk = self._frames[start:]
            return chunk, start + len(chunk), self._closed

    def follow(
        self, *, heartbeat: float | None = None
    ) -> Iterator[dict | None]:
        """Replay history, then yield live frames until :meth:`close`.

        Yields ``None`` as a heartbeat marker when ``heartbeat`` seconds
        pass without traffic (SSE writers turn it into a comment line
        that doubles as a disconnect probe).
        """
        idx = 0
        with self._cond:
            self._watchers += 1
        try:
            while True:
                chunk, idx, closed = self.next_frames(idx, timeout=heartbeat)
                yield from chunk
                if closed and not chunk:
                    return
                if not chunk and heartbeat is not None:
                    yield None
        finally:
            with self._cond:
                self._watchers -= 1
