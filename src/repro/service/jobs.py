"""Asyncio job queue: experiment specs in, streamed progress out.

The execution model NETCS (Amaxilatis et al. 2015) pitched for
population-protocol experimentation — a long-running service that
accepts submissions and streams results — over this repo's declarative
runner layer.  A :class:`JobService` owns a set of :class:`Job` s, each
one submitted :class:`~repro.analysis.runner.ExperimentSpec` or
:class:`~repro.analysis.robustness.RobustnessSpec`:

1. the spec is **expanded** into its independent trials;
2. trials are **deduped** against the content-addressed
   :class:`~repro.service.store.ResultStore` (cache hits complete
   instantly, counted separately so clients can report hit rates);
3. misses are **sharded in batches** across the process-pool worker
   fleet via :func:`repro.analysis.runner.pool_map` — the same entry
   point the Runner and ``run_robustness`` use — with each batch
   awaited off-loop on the service's daemon batch thread, so the event
   loop keeps answering status queries while engines grind, and a
   stopping service never waits for a batch;
4. fresh records are **stored back**, making every later submission of
   an overlapping spec cheaper.

Progress is incremental by construction: ``completed``/``cached``/
``running`` counts update at batch granularity and a *partial*
:class:`~repro.analysis.runner.SweepResult` is available at any time.
Cancellation is cooperative — the flag is honored at the next batch
boundary (a batch already on the fleet runs to completion and is still
cached: the work is done, keep it).  :meth:`JobService.shutdown` is the
exception: it cancels every unfinished job at once and abandons the
batches still running.

Everything here runs on one event loop; the HTTP layer
(:mod:`repro.service.api`) bridges its handler threads in via
``run_coroutine_threadsafe``, so no locks are needed.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
import time
from typing import Union

from repro.analysis.robustness import RobustnessResult, RobustnessSpec
from repro.analysis.runner import (
    ExperimentSpec,
    SweepResult,
    pool_map,
    run_trial,
)
from repro.core.errors import ReproError
from repro.core.trace import FrameAdapter, FrameLog, TraceBus
from repro.service.keys import code_digest, trial_key
from repro.service.store import ResultStore

ServiceSpec = Union[ExperimentSpec, RobustnessSpec]

#: job kind -> (trial executor, key function, store envelope tag): both
#: kinds run and key their trials alike, only the tag differs.
JOB_KINDS = {
    "sweep": (run_trial, trial_key, "trial"),
    "robustness": (run_trial, trial_key, "robustness"),
}

#: States a job moves through (terminal: done/failed/cancelled).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


class JobError(ReproError):
    """A job submission or lookup failed."""


def _settle(future: asyncio.Future, result, error) -> None:
    """Resolve a batch's future on its loop (a cancelled job's future is
    left as it is)."""
    if future.done():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


def _run_batches(batches: queue.SimpleQueue) -> None:
    """A :class:`JobService`'s batch thread: run each queued batch in
    turn until the ``None`` that :meth:`JobService.shutdown` queues."""
    while (item := batches.get()) is not None:
        loop, future, fn, args = item
        try:
            outcome = (fn(*args), None)
        except Exception as exc:
            outcome = (None, exc)
        try:
            loop.call_soon_threadsafe(_settle, future, *outcome)
        except RuntimeError:
            pass  # the loop closed while the batch ran: nobody awaits it


def kind_of(spec: ServiceSpec) -> str:
    """The job kind of a spec object."""
    if isinstance(spec, ExperimentSpec):
        return "sweep"
    if isinstance(spec, RobustnessSpec):
        return "robustness"
    raise JobError(
        f"cannot submit a {type(spec).__name__}; expected an "
        "ExperimentSpec or a RobustnessSpec"
    )


class Job:
    """Mutable state of one submitted experiment.

    ``records`` is index-aligned with the spec's expanded trials;
    completed slots fill in as batches land, so :meth:`result` can build
    a partial sweep at any moment and the finished result preserves
    exact trial order (the executor-equivalence contract).
    """

    def __init__(
        self,
        job_id: str,
        kind: str,
        spec: ServiceSpec,
        stream: bool | None = None,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.spec = spec
        self.trials = spec.expand()
        self.total = len(self.trials)
        self.records: list = [None] * self.total
        self.state = "queued"
        self.cached = 0
        self.completed = 0
        self.running = 0
        self.error = ""
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        self.cancel_requested = False
        self.task: asyncio.Task | None = None
        #: Census-streaming policy: ``True`` forces per-trial census
        #: frames, ``False`` suppresses them, ``None`` (auto) streams
        #: only while someone follows :attr:`events` — and only on the
        #: serial (workers == 1) executor either way.
        self.stream = stream
        #: The SSE frame log ``GET /jobs/<id>/events`` follows.
        self.events = FrameLog()

    def publish_status(self) -> None:
        """Append a progress frame to the event stream (control frame:
        never dropped by the log's census cap)."""
        self.events.publish(
            {"type": "status", **self.progress_dict()}, control=True
        )

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    @property
    def partial(self) -> bool:
        """Whether :meth:`result` would return fewer records than the
        spec expands to."""
        return self.completed < self.total

    def result(self) -> SweepResult | RobustnessResult:
        """The (possibly partial) result assembled from completed
        trials, in trial order."""
        records = tuple(r for r in self.records if r is not None)
        if self.kind == "sweep":
            return SweepResult(spec=self.spec, records=records)
        return RobustnessResult(spec=self.spec, records=records)

    def progress_dict(self) -> dict:
        """The compact progress payload (status minus the spec) used as
        the SSE ``status`` frame body."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "total": self.total,
            "cached": self.cached,
            "completed": self.completed,
            "running": self.running,
            "partial": self.partial,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }

    def status_dict(self) -> dict:
        """The JSON status payload the API serves."""
        return {**self.progress_dict(), "spec": self.spec.to_dict()}


class JobService:
    """The asyncio job queue: submit specs, watch them complete.

    ``workers`` is the process-pool width misses are sharded across
    (1 = in-process serial, the :func:`pool_map` contract).
    :attr:`batch_size` is the progress granularity — how many trials go
    to the fleet per awaited batch: a few chunks per worker, without
    starving status updates.
    """

    def __init__(
        self, store: ResultStore | None = None, workers: int = 1
    ) -> None:
        if workers < 1:
            raise JobError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.workers = workers
        self.batch_size = max(8, workers * 4)
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._batches: queue.SimpleQueue | None = None

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobError(f"unknown job {job_id!r}") from None

    def jobs(self) -> list[Job]:
        """Every job, in submission order."""
        return list(self._jobs.values())

    # ------------------------------------------------------------------
    async def submit(
        self, spec: ServiceSpec, stream: bool | None = None
    ) -> Job:
        """Queue a spec for execution; returns immediately with the
        (``queued``/``running``) job.

        ``stream`` sets the job's census-streaming policy (see
        :attr:`Job.stream`); the default streams census frames only
        while the job's event stream has a live follower.
        """
        kind = kind_of(spec)
        job = Job(f"job-{next(self._ids)}", kind, spec, stream=stream)
        self._jobs[job.id] = job
        job.publish_status()
        job.task = asyncio.create_task(self._execute(job))
        return job

    async def wait(self, job_id: str) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.get(job_id)
        if job.task is not None:
            try:
                await asyncio.shield(job.task)
            except asyncio.CancelledError:
                # A cancelled *job* resolves the wait; a cancelled
                # *waiter* propagates.
                if not job.task.cancelled():
                    raise
        return job

    async def cancel(self, job_id: str) -> Job:
        """Request cooperative cancellation (honored at the next batch
        boundary; a finished job is left as-is)."""
        job = self.get(job_id)
        if not job.finished:
            job.cancel_requested = True
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
                if job.task is not None:
                    job.task.cancel()
                # A task cancelled before its first step never runs
                # _execute's finally block: settle the stream here.
                self._finish_events(job)
        return job

    async def shutdown(self) -> None:
        """Cancel every unfinished job now (the service is stopping):
        each ends ``cancelled`` with its end frame, and a batch still
        running is abandoned to the batch thread, which then exits."""
        tasks = []
        for job in self.jobs():
            if not job.finished:
                await self.cancel(job.id)
                tasks.append(job.task)
                job.task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._batches is not None:
            self._batches.put(None)
            self._batches = None

    async def _off_loop(self, fn, *args):
        """Await ``fn(*args)`` run on this service's batch thread.

        One daemon thread runs the batches in turn: the interpreter
        joins ``asyncio.to_thread``'s executor threads at exit, so a
        process stopping mid-trial would wait for the trial.
        """
        if self._batches is None:
            self._batches = queue.SimpleQueue()
            threading.Thread(
                target=_run_batches, args=(self._batches,),
                name="repro-job-batches", daemon=True,
            ).start()
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._batches.put((loop, future, fn, args))
        return await future

    @staticmethod
    def _finish_events(job: Job) -> None:
        """Terminal frames + close (idempotent: publishing to a closed
        log is a no-op)."""
        job.publish_status()
        job.events.publish(
            {"type": "end", "state": job.state, "error": job.error},
            control=True,
        )
        job.events.close()

    # ------------------------------------------------------------------
    def _stream_batch(self, run_fn, trials: list, job: Job) -> list:
        """Serial in-process batch with a bus per trial: census/fault
        frames land on the job's event log tagged with the trial's
        coordinates.  Only valid at workers == 1 (the pool_map serial
        contract — closures don't cross process boundaries)."""
        records = []
        for trial in trials:
            bus = TraceBus()
            bus.subscribe(FrameAdapter(
                job.events.publish,
                extra={"n": trial.n, "trial": trial.trial},
            ))
            records.append(run_fn(trial, bus=bus))
        return records

    def _wants_census(self, job: Job) -> bool:
        """Stream per-trial census frames for the next batch?  Forced
        policies win; auto streams only while someone is following the
        job's SSE stream.  Process workers never stream (the bus can't
        cross the pickle boundary)."""
        if self.workers != 1 or job.stream is False:
            return False
        return job.stream is True or job.events.watched

    async def _execute(self, job: Job) -> None:
        run_fn, key_fn, envelope = JOB_KINDS[job.kind]
        job.state = "running"
        try:
            pending: list[tuple[int, object, str | None]] = []
            if self.store is not None:
                digests = {
                    p: code_digest(p)
                    for p in {t.protocol for t in job.trials}
                }
                for i, trial in enumerate(job.trials):
                    key = key_fn(trial, code_version=digests[trial.protocol])
                    record = self.store.get(key)
                    if record is None:
                        pending.append((i, trial, key))
                    else:
                        job.records[i] = record
                        job.cached += 1
                        job.completed += 1
            else:
                pending = [(i, t, None) for i, t in enumerate(job.trials)]
            job.publish_status()
            for start in range(0, len(pending), self.batch_size):
                if job.cancel_requested:
                    job.state = "cancelled"
                    return
                batch = pending[start:start + self.batch_size]
                job.running = len(batch)
                try:
                    batch_trials = [trial for _, trial, _ in batch]
                    if self._wants_census(job):
                        records = await self._off_loop(
                            self._stream_batch, run_fn, batch_trials, job,
                        )
                    else:
                        records = await self._off_loop(
                            pool_map, run_fn, batch_trials, self.workers,
                        )
                finally:
                    job.running = 0
                for (i, _, key), record in zip(batch, records):
                    job.records[i] = record
                    job.completed += 1
                    if self.store is not None and key is not None:
                        self.store.put(key, record, envelope)
                job.publish_status()
            job.state = "cancelled" if job.cancel_requested else "done"
        except asyncio.CancelledError:
            job.state = "cancelled"
        except Exception as exc:  # surface in status, don't kill the loop
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            job.finished_at = time.time()
            self._finish_events(job)
