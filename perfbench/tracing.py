"""Tracing for the benchmark's traced run, installed from outside.

Nothing under ``src/`` knows about it: :func:`installed` swaps wrappers
in for the public calls of each layer, at the place where the caller
looks the name up, and restores the originals on exit.  Two kinds of
wrapper exist:

* **span** wrappers (coarse boundaries: a trial, a batch, an engine
  run, a compile) record one span per call, with its parent, in memory;
* **aggregate** wrappers (calls made thousands of times per trial:
  index upkeep, the stabilization certificate, store and key calls)
  only add a call count and busy time to their layer.  Their time is
  still charged to the enclosing span, so every span's self time is
  its duration minus what its child spans and aggregated calls took.

Operations run one at a time (a closed loop), so a span opened on a
thread with nothing open on it (the service's loop or worker thread)
is parented to the innermost span still open on the operation's
thread.  The wrappers themselves are not locked for the same reason.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

CLOCK = time.perf_counter


class _Frame:
    __slots__ = ("id", "name", "t0", "agg0", "child_dur", "child_agg", "attrs")

    def __init__(self, span_id: int, name: str, agg0: float) -> None:
        self.id = span_id
        self.name = name
        self.t0 = CLOCK()
        self.agg0 = agg0
        self.child_dur = 0.0
        self.child_agg = 0.0
        self.attrs: dict = {}


class Tracer:
    """In-memory spans plus per-layer counters of one traced run."""

    def __init__(self) -> None:
        #: layer name -> [calls, busy seconds] of aggregated calls
        self.counters: dict[str, list] = {}
        #: name -> summed quantity (steps, bytes, hits, ...)
        self.values: dict[str, float] = {}
        #: finished spans: (id, parent, op, name, thread, start, end, self_s, attrs)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._agg = [0.0]
        self._agg_depth = [0]
        self._op: _Frame | None = None
        self._op_stack: list[_Frame] | None = None
        self.epoch = CLOCK()
        #: (protocol, RunResult) of the latest top-level engine run
        self.last_run: tuple | None = None
        #: start time of the latest ``JobService.submit`` not yet picked up
        self.pending_submit: float | None = None

    # ------------------------------------------------------------------
    def counter(self, name: str) -> list:
        return self.counters.setdefault(name, [0, 0.0])

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[_Frame]:
        """One span around the body; yields its frame (``attrs`` is
        written out with the span)."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        frame = _Frame(next(self._ids), name, self._agg[0])
        stack.append(frame)
        try:
            yield frame
        finally:
            stack.pop()
            end = CLOCK()
            dur = end - frame.t0
            agg_in = self._agg[0] - frame.agg0
            self_s = dur - frame.child_dur - (agg_in - frame.child_agg)
            if parent is not None:
                parent.child_dur += dur
                parent.child_agg += agg_in
            self.spans.append((
                frame.id,
                parent.id if parent is not None else None,
                self._op.id if self._op is not None else None,
                name,
                threading.current_thread().name,
                frame.t0 - self.epoch,
                end - self.epoch,
                self_s,
                frame.attrs,
            ))

    @contextmanager
    def op(self, name: str) -> Iterator[_Frame]:
        """The root span of one operation (a trial or a job).  Its
        attributes hold the per-layer counts and busy time accrued
        during it, so per-call layers appear once per operation."""
        before = {k: tuple(v) for k, v in self.counters.items()}
        with self.span(name) as frame:
            self._op = frame
            self._op_stack = self._stack()
            try:
                yield frame
            finally:
                self._op = None
                self._op_stack = None
                for key, (calls, busy) in self.counters.items():
                    c0, b0 = before.get(key, (0, 0.0))
                    if calls != c0:
                        frame.attrs[key] = [calls - c0, busy - b0]

    def span_total(self, name: str) -> tuple[int, float, float]:
        """(count, summed duration, summed self time) of spans ``name``."""
        rows = [s for s in self.spans if s[3] == name]
        return (
            len(rows),
            sum(s[6] - s[5] for s in rows),
            sum(s[7] for s in rows),
        )

    def write(self, path: str) -> None:
        """Spans as JSON lines, written once when the run ends."""
        keys = ("id", "parent", "op", "name", "thread", "start_s", "end_s",
                "self_s", "attrs")
        with open(path, "w", encoding="utf-8") as out:
            for row in self.spans:
                out.write(json.dumps(dict(zip(keys, row))) + "\n")

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def spanned(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` in a span named ``name``."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def aggregated(self, name: str, fn: Callable, group: list) -> Callable:
        """Count and time ``fn`` under layer ``name`` without a span.

        ``group`` is a one-cell depth guard shared by the methods of one
        layer, so a layer method calling another (``move_edge`` ->
        ``add_edge``) counts once.  Busy time of nested calls into a
        *different* aggregated layer counts in both layers but is
        charged to the enclosing span only once."""
        acc = self.counter(name)
        agg = self._agg
        depth = self._agg_depth

        def wrapper(*args, **kwargs):
            if group[0]:
                return fn(*args, **kwargs)
            group[0] = 1
            depth[0] += 1
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = CLOCK() - t0
                depth[0] -= 1
                group[0] = 0
                acc[0] += 1
                acc[1] += dt
                if not depth[0]:
                    agg[0] += dt

        return wrapper


class _Patcher:
    """setattr/dict-item swaps, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def attr(self, owner, name: str, value) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def item(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


#: PairClassIndex methods by the layer they are counted under.
INDEX_LAYERS = {
    "indexing.refresh": ("refresh_involving", "refresh_pair", "rebuild"),
    "indexing.edge": ("add_edge", "remove_edge", "move_edge"),
    "indexing.node": ("add_node", "move_node", "remove_node"),
    "indexing.sample": ("sample_class", "sample_pair"),
}


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block."""
    from repro.analysis import runner
    from repro.core import counting, indexing, simulator
    from repro.core.protocol import Protocol
    from repro.protocols import registry
    from repro.service import api, jobs, keys, store

    patch = _Patcher()
    try:
        # core/indexing: per-call upkeep, summed per layer.
        for layer, methods in INDEX_LAYERS.items():
            group = [0]
            for method in methods:
                original = indexing.PairClassIndex.__dict__[method]
                patch.attr(indexing.PairClassIndex, method,
                           tracer.aggregated(layer, original, group))

        # core/simulator (+ the certificate, timed through run(stop=...)).
        certificate_group = [0]

        def traced_run(original):
            def run(self, protocol, n, max_steps=None, **kwargs):
                stack = tracer._stack()
                if stack and stack[-1].name == "simulator.run":
                    # CountSimulator delegating to IndexedSimulator.run:
                    # already spanned, and stop= is already wrapped.
                    return original(self, protocol, n, max_steps, **kwargs)
                if kwargs.get("stop") is None:
                    kwargs["stop"] = tracer.aggregated(
                        "certificate", protocol.stabilized, certificate_group)
                with tracer.span("simulator.run"):
                    result = original(self, protocol, n, max_steps, **kwargs)
                tracer.last_run = (protocol, result)
                tracer.add("simulator.steps", result.steps)
                tracer.add("simulator.effective", result.effective_steps)
                return result

            return run

        patch.attr(simulator.IndexedSimulator, "run",
                   traced_run(simulator.IndexedSimulator.__dict__["run"]))
        patch.attr(counting.CountSimulator, "run",
                   traced_run(counting.CountSimulator.__dict__["run"]))

        # core/protocol: compile on the base class; initial_configuration
        # per instance (subclasses override it, and the count engine
        # tells default from overridden starts by the class attribute).
        patch.attr(Protocol, "compile",
                   tracer.spanned("protocol.compile", Protocol.__dict__["compile"]))

        # protocols/registry: every caller goes through the module attribute.
        instantiate = tracer.spanned("registry.instantiate", registry.instantiate)

        def traced_instantiate(spec, **overrides):
            protocol = instantiate(spec, **overrides)
            protocol.initial_configuration = tracer.spanned(
                "protocol.initial_configuration", protocol.initial_configuration)
            return protocol

        patch.attr(registry, "instantiate", traced_instantiate)

        # analysis/runner: the serial runner path and the service's job table.
        run_trial = tracer.spanned("runner.run_trial", runner.run_trial)
        patch.attr(runner, "run_trial", run_trial)

        # service/keys: jobs imported both names into its own namespace.
        code_digest = tracer.spanned("keys.code_digest", keys.code_digest)

        def traced_code_digest(spec):
            if tracer.pending_submit is not None:
                tracer.add("jobs.queue_wait_s", CLOCK() - tracer.pending_submit)
                tracer.add("jobs.queued", 1)
                tracer.pending_submit = None
            return code_digest(spec)

        trial_key = tracer.aggregated("keys.trial_key", keys.trial_key, [0])
        for module in (keys, jobs):
            patch.attr(module, "code_digest", traced_code_digest)
            patch.attr(module, "trial_key", trial_key)
        _, _, envelope = jobs.JOB_KINDS["sweep"]
        patch.item(jobs.JOB_KINDS, "sweep", (run_trial, trial_key, envelope))
        patch.attr(jobs, "run_trial", run_trial)

        # service/jobs: queue wait (submit -> first key work) and batches.
        original_submit = jobs.JobService.__dict__["submit"]

        async def submit(self, spec, stream=None):
            tracer.pending_submit = CLOCK()
            return await original_submit(self, spec, stream=stream)

        patch.attr(jobs.JobService, "submit", submit)
        patch.attr(jobs, "pool_map", tracer.spanned("jobs.batch", jobs.pool_map))

        # service/store: get/put busy time, hit/miss outcome, bytes written.
        store_group = [0]
        get = tracer.aggregated("store.get", store.ResultStore.__dict__["get"], store_group)
        put = tracer.aggregated("store.put", store.ResultStore.__dict__["put"], store_group)

        def traced_get(self, key):
            record = get(self, key)
            tracer.add("store.misses" if record is None else "store.hits", 1)
            return record

        def traced_put(self, key, record, kind="trial"):
            put(self, key, record, kind)
            tracer.add("store.bytes", self.path(key).stat().st_size)

        patch.attr(store.ResultStore, "get", traced_get)
        patch.attr(store.ResultStore, "put", traced_put)

        # core/serialization, where the store and the API look it up.
        codec_group = [0]
        patch.attr(store, "stored_record_from_dict", tracer.aggregated(
            "serialization.decode", store.stored_record_from_dict, codec_group))
        patch.attr(store, "stored_record_to_dict", tracer.aggregated(
            "serialization.encode", store.stored_record_to_dict, codec_group))
        patch.attr(api, "sweep_result_to_dict", tracer.aggregated(
            "serialization.encode", api.sweep_result_to_dict, codec_group))
        yield tracer
    finally:
        patch.restore()
