"""Plain-JSON HTTP API over the job service — stdlib only.

``repro-net serve`` runs an :class:`ExperimentService`: an asyncio event
loop on a dedicated thread hosting the :class:`~repro.service.jobs.
JobService`, fronted by a :class:`http.server.ThreadingHTTPServer`.
Handler threads bridge into the loop with
``asyncio.run_coroutine_threadsafe`` — every job mutation happens on the
loop, so the service needs no locks, and a long-running sweep never
blocks a status poll.

Routes (payloads JSON unless noted; a ``?query`` is ignored)::

    GET  /health              service liveness, worker/store summary
    POST /jobs                {"kind": "sweep"|"robustness", "spec": {...},
                               "stream": true|false|null}
    GET  /jobs                every job's status, submission order
    GET  /jobs/<id>           one job's status (progress counts)
    GET  /jobs/<id>/events    server-sent events: live progress/census
                              frames (replays history, then follows)
    GET  /jobs/<id>/watch     the live dashboard page (HTML) over events
    GET  /jobs/<id>/census    snapshot: latest census/meta/status frames,
                              recent faults, the job's end frame
    GET  /jobs/<id>/result    (possibly partial) result payload
    POST /jobs/<id>/cancel    cooperative cancellation
    GET  /store/stats         result-store footprint + hit counters
    POST /store/gc            collect stray tmp files / orphaned entries

``/jobs/<id>/events`` streams ``text/event-stream`` (see
:mod:`repro.service.sse`) instead of JSON: one ``status`` frame per
batch boundary, per-trial ``meta``/``census``/``fault``/``run-end``
frames when census streaming is on (workers == 1 and the job was
submitted with ``"stream": true`` — or someone is watching), and a
terminal ``end`` frame.  Clients follow it instead of polling; the
``/watch`` page (:mod:`repro.service.dashboard`) is such a client, and
``repro-net watch`` prints its URL.

Errors come back as ``{"error": "..."}`` with 400 (bad spec, payload
or ``Content-Length``), 404 (unknown job or route) or 503 (no store
configured).  The wire format is the versioned serialization layer of
:mod:`repro.core.serialization` end to end — a stored ``SweepResult``
fetched through the API is byte-identical to one computed locally.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.analysis.robustness import RobustnessSpec
from repro.analysis.runner import ExperimentSpec
from repro.core.errors import ReproError
from repro.core.serialization import SerializationError, encode
from repro.service.dashboard import census_snapshot, render_page
from repro.service.jobs import Job, JobError, JobService
from repro.service.keys import SCHEMA_VERSION
from repro.service.sse import HEARTBEAT_SECONDS, write_sse
from repro.service.store import ResultStore

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: wire kind -> spec decoder (the inverse of ``spec.to_dict()``).
SPEC_DECODERS = {
    "sweep": ExperimentSpec.from_dict,
    "robustness": RobustnessSpec.from_dict,
}

#: The sweep-result encoder, under its own name because the repository
#: benchmark's tracer times it by that name (``perfbench/tracing.py``).
sweep_result_to_dict = encode


class ApiError(ReproError):
    """An API request was malformed (maps to an HTTP 4xx)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def result_payload(job: Job) -> dict:
    """The ``/jobs/<id>/result`` body: status counts plus the (possibly
    partial) result in the standard serialization envelope."""
    result = job.result()
    encoded = (
        sweep_result_to_dict(result) if job.kind == "sweep" else encode(result)
    )
    return {
        "id": job.id,
        "kind": job.kind,
        "state": job.state,
        "partial": job.partial,
        "total": job.total,
        "cached": job.cached,
        "completed": job.completed,
        "error": job.error,
        "result": encoded,
    }


class _HTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` whose ``server_close`` also ends the
    connections still open on it.

    Clients keep their connections alive, and a handler thread parked
    on an idle one would go on answering that client after the service
    stopped (``503 service not started``), even once a new service had
    bound the same port.  Shutting the sockets down hands every such
    client an EOF, so its next request opens a fresh connection.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            still_open = list(self._open)
        for sock in still_open:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the handler closed it meanwhile


class ExperimentService:
    """The deployable unit: loop thread + job service + HTTP server.

    ``start()`` binds the socket (``port=0`` picks an ephemeral port —
    the tests' pattern) and returns ``(host, port)``; ``stop()`` tears
    everything down.  Also usable embedded, without HTTP: ``call()``
    runs any coroutine on the service loop from any thread.
    """

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        workers: int = 1,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ) -> None:
        self.jobs = JobService(store=store, workers=workers)
        self.store = store
        self.workers = workers
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._httpd: _HTTPServer | None = None
        self._http_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Start the loop thread and the HTTP server; returns the bound
        ``(host, port)``."""
        if self._loop is not None:
            raise ApiError("service already started", status=400)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service-loop",
            daemon=True,
        )
        self._loop_thread.start()
        handler = _make_handler(self)
        self._httpd = _HTTPServer((self.host, self.port), handler)
        self.port = int(self._httpd.server_address[1])
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        return self.host, self.port

    def stop(self) -> list[str]:
        """Cancel every unfinished job, then shut the HTTP server, its
        open connections and the loop down (idempotent).

        A batch still running is abandoned on its daemon thread, so
        stopping never waits for a trial.  Each service thread gets a
        bounded ``join``; a thread still alive afterwards is a *wedged
        shutdown* — its name is returned and a :class:`RuntimeWarning`
        fires, instead of the old silent fall-through that reported
        success while threads kept running.  An empty list means
        everything actually stopped.
        """
        wedged: list[str] = []
        if self._loop is not None:
            try:
                self.call(self.jobs.shutdown(), timeout=5)
            except TimeoutError:
                pass  # a wedged loop: the join below reports it
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5)
            if self._http_thread.is_alive():
                wedged.append(self._http_thread.name)
            self._http_thread = None
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            loop_stopped = True
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=5)
                if self._loop_thread.is_alive():
                    wedged.append(self._loop_thread.name)
                    loop_stopped = False
                self._loop_thread = None
            if loop_stopped:
                # Closing a loop that is still running raises; leave a
                # wedged loop open — the daemon thread dies with us.
                self._loop.close()
            self._loop = None
        if wedged:
            warnings.warn(
                "service shutdown wedged: thread(s) "
                f"{', '.join(wedged)} did not stop within 5s",
                RuntimeWarning,
                stacklevel=2,
            )
        return wedged

    def call(self, coro, timeout: float | None = None) -> Any:
        """Run ``coro`` on the service loop from any thread and return
        its result (the handler threads' only way in)."""
        if self._loop is None:
            coro.close()  # never scheduled: close it, or Python warns
            raise ApiError("service not started", status=503)
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Request handlers (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        """Route one request; returns ``(status, payload)``."""
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["health"]:
            stats = self.store.stats().to_dict() if self.store else None
            return 200, {
                "ok": True,
                "schema_version": SCHEMA_VERSION,
                "workers": self.workers,
                "jobs": len(self.jobs.jobs()),
                "store": stats,
            }
        if parts and parts[0] == "jobs":
            return self._handle_jobs(method, parts, body)
        if parts and parts[0] == "store":
            return self._handle_store(method, parts)
        raise ApiError(f"no route {method} /{'/'.join(parts)}", status=404)

    def _handle_jobs(
        self, method: str, parts: list[str], body: dict | None
    ) -> tuple[int, dict]:
        if method == "POST" and len(parts) == 1:
            if not isinstance(body, dict):
                raise ApiError("POST /jobs needs a JSON object body")
            kind = body.get("kind", "sweep")
            decoder = SPEC_DECODERS.get(kind)
            if decoder is None:
                raise ApiError(
                    f"unknown job kind {kind!r}; "
                    f"choose from {sorted(SPEC_DECODERS)}"
                )
            payload = body.get("spec")
            if not isinstance(payload, dict):
                raise ApiError("missing 'spec' object in body")
            stream = body.get("stream")
            if stream is not None and not isinstance(stream, bool):
                raise ApiError("'stream' must be a boolean (or omitted)")
            spec = decoder(payload)
            job = self.call(self.jobs.submit(spec, stream=stream))
            return 201, {"job": self.call(_status(job))}
        if method == "GET" and len(parts) == 1:
            statuses = self.call(_statuses(self.jobs))
            return 200, {"jobs": statuses}
        if len(parts) >= 2:
            job_id = parts[1]
            if method == "GET" and len(parts) == 2:
                job = self._get_job(job_id)
                return 200, self.call(_status(job))
            if method == "GET" and parts[2:] == ["result"]:
                job = self._get_job(job_id)
                return 200, self.call(_result(job))
            if method == "GET" and parts[2:] == ["census"]:
                # The frame log has its own lock: no trip to the loop.
                return 200, census_snapshot(self._get_job(job_id).events)
            if method == "POST" and parts[2:] == ["cancel"]:
                job = self._get_job(job_id)
                self.call(self.jobs.cancel(job_id))
                return 200, self.call(_status(job))
        raise ApiError(
            f"no route {method} /{'/'.join(parts)}", status=404
        )

    def _get_job(self, job_id: str) -> Job:
        try:
            return self.jobs.get(job_id)
        except JobError as exc:
            raise ApiError(str(exc), status=404) from None

    def _handle_store(self, method: str, parts: list[str]) -> tuple[int, dict]:
        if self.store is None:
            raise ApiError("service has no result store", status=503)
        if method == "GET" and parts == ["store", "stats"]:
            return 200, {"store": self.store.stats().to_dict()}
        if method == "POST" and parts == ["store", "gc"]:
            stats = self.store.gc()
            return 200, {
                "removed_tmp": stats.removed_tmp,
                "removed_invalid": stats.removed_invalid,
                "kept": stats.kept,
            }
        raise ApiError(f"no route {method} /{'/'.join(parts)}", status=404)


# Tiny loop-side coroutines: every read of mutable job state happens on
# the event loop, so handler threads never observe a half-updated job.
async def _status(job: Job) -> dict:
    return job.status_dict()


async def _statuses(jobs: JobService) -> list[dict]:
    return [job.status_dict() for job in jobs.jobs()]


async def _result(job: Job) -> dict:
    return result_payload(job)


def _make_handler(service: ExperimentService) -> type:
    class Handler(BaseHTTPRequestHandler):
        # Keep-alive responses; Content-Length is always set below, and
        # the event stream is chunked (see service/sse.py).
        protocol_version = "HTTP/1.1"
        # A response leaves in two writes (headers, body).  With Nagle
        # on, the body waits for the client's delayed ACK of the headers
        # on a kept-alive connection: ~40 ms per request.
        disable_nagle_algorithm = True

        def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
            pass  # the CLI banner is the only stdout the service owns

        def _send(self, status: int, content_type: str, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _respond(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self._send(status, "application/json", body)

        def _job_view(self, job_id: str, view: str) -> None:
            """The non-JSON routes: a job's frame log as SSE
            (``events``) or the dashboard page that follows it
            (``watch``).

            Handled outside ``service.handle``, which answers JSON only.
            The stream replays buffered frames, then follows live with
            heartbeats; it ends when the job's log closes, and an
            HTTP/1.1 connection then serves the client's next request."""
            try:
                job = service._get_job(job_id)
            except ApiError as exc:
                self._respond(exc.status, {"error": str(exc)})
                return
            if view == "events":
                write_sse(
                    self, job.events.follow(heartbeat=HEARTBEAT_SECONDS)
                )
                return
            spec = job.spec
            protocol = (
                spec.protocol if job.kind == "sweep"
                else ", ".join(spec.protocols)
            )
            page = render_page(f"repro-net watch {job.id} ({protocol})")
            self._send(200, "text/html; charset=utf-8", page.encode("utf-8"))

        def _dispatch(self, method: str) -> None:
            path = self.path.split("?", 1)[0]
            parts = [p for p in path.split("/") if p]
            if (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] in ("events", "watch")
            ):
                self._job_view(parts[1], parts[2])
                return
            body: dict | None = None
            try:
                length = int(self.headers.get("Content-Length") or 0)
                if length < 0:
                    raise ValueError(length)
            except ValueError:
                # The body's extent is unknown, so nothing after it on
                # this connection can be read as a request.
                self.close_connection = True
                self._respond(400, {"error": "bad Content-Length header"})
                return
            if length:
                try:
                    body = json.loads(self.rfile.read(length))
                except ValueError:
                    self._respond(400, {"error": "body is not valid JSON"})
                    return
            try:
                status, payload = service.handle(method, path, body)
            except ApiError as exc:
                self._respond(exc.status, {"error": str(exc)})
            except (SerializationError, ReproError) as exc:
                self._respond(400, {"error": str(exc)})
            except Exception as exc:  # pragma: no cover - defensive
                self._respond(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            else:
                self._respond(status, payload)

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

    return Handler


def serve(
    *,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = 1,
    store_dir: str | None = None,
) -> None:
    """Run the service until interrupted (the ``repro-net serve``
    entry point)."""
    store = ResultStore(store_dir) if store_dir else None
    service = ExperimentService(
        store=store, workers=workers, host=host, port=port
    )
    host, port = service.start()
    where = store.root if store else "(no store: every trial recomputes)"
    print(f"repro-net service listening on http://{host}:{port}")
    print(f"workers: {workers}  store: {where}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.stop()
