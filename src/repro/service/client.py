"""Keep-alive HTTP client for the experiment service.

One class, :class:`ServiceClient`, speaking the plain-JSON protocol of
:mod:`repro.service.api`.  Stdlib only (``http.client``) so scripts
and CI can talk to a running ``repro-net serve`` without any
dependencies.  Connection failures and HTTP error payloads both surface
as :class:`ServiceError` with the server's ``{"error": ...}`` message
when one came back.

Connections are kept alive.  A thread's requests — a job's submit, its
event stream and its result fetch — travel on one persistent HTTP/1.1
connection (``http.client`` turns Nagle's algorithm off on it), which
waits in the client's pool of idle connections between requests; each
thread in flight holds its own.  Two rules keep reuse safe:

* **A request is never sent twice.**  Before an idle connection is
  reused, a zero-timeout readability probe checks that the server has
  not closed it (a stopped service shuts its connections down); if it
  has, a new connection is opened.  A failure after a request went out
  is a :class:`ServiceError`, never a retry.
* **An abandoned stream closes its connection.**  An :meth:`events`
  iterator dropped before the ``end`` frame leaves unread bytes behind,
  so its connection is closed instead of going back to the pool.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.parse
from typing import Iterator

from repro.core.errors import ReproError
from repro.service.api import DEFAULT_HOST, DEFAULT_PORT
from repro.service.sse import parse_sse

DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"

#: Transport failures of ``http.client`` (refused, reset, timed out,
#: malformed or truncated response).
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class ServiceError(ReproError):
    """A service request failed (connection refused, HTTP error, or a
    job that finished ``failed``)."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


def _reusable(conn: http.client.HTTPConnection) -> bool:
    """Whether an idle connection may carry the next request.

    Nothing may be readable on an idle keep-alive connection: readable
    means the server closed it (EOF) or sent bytes nobody asked for.  A
    connection ``http.client`` already closed reconnects by itself."""
    if conn.sock is None:
        return True
    try:
        readable, _, _ = select.select([conn.sock], [], [], 0)
    except (OSError, ValueError):
        return False
    return not readable


class ServiceClient:
    """Client for one service endpoint (``url`` like
    ``http://127.0.0.1:8642``); safe to share between threads."""

    def __init__(self, url: str = DEFAULT_URL, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ServiceError(
                f"bad service URL {url!r}: expected http://HOST:PORT"
            )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the idle connections (the client stays usable: the
        next request opens a new one)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _checkout(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, or a new one."""
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if _reusable(conn):
                    return conn
                conn.close()
        return self._connection_class(self._netloc, timeout=self.timeout)

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            self._idle.append(conn)

    def _send(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request; returns its connection and the response
        with status and headers read, body not."""
        conn = self._checkout()
        if conn.sock is None:
            try:
                conn.connect()
            except OSError as exc:
                raise ServiceError(
                    f"cannot reach service at {self.url}: {exc}"
                ) from None
        try:
            conn.request(method, self._prefix + path, body=body, headers=headers)
            return conn, conn.getresponse()
        except _TRANSPORT_ERRORS as exc:
            conn.close()
            raise self._lost(exc) from None

    def _lost(self, exc: Exception) -> ServiceError:
        return ServiceError(
            f"lost the connection to service at {self.url}: {exc}"
        )

    def _read(
        self, conn: http.client.HTTPConnection, response: http.client.HTTPResponse
    ) -> bytes:
        """The whole response body; the connection then goes back to
        the pool."""
        try:
            body = response.read()
        except _TRANSPORT_ERRORS as exc:
            conn.close()
            raise self._lost(exc) from None
        self._checkin(conn)
        return body

    @staticmethod
    def _http_error(response: http.client.HTTPResponse, body: bytes) -> ServiceError:
        fallback = f"HTTP Error {response.status}: {response.reason}"
        try:
            message = json.loads(body).get("error", fallback)
        except ValueError:
            message = fallback
        return ServiceError(message, status=response.status)

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        conn, response = self._send(
            method, path, data, {"Content-Type": "application/json"}
        )
        payload = self._read(conn, response)
        if not 200 <= response.status < 300:
            raise self._http_error(response, payload)
        return json.loads(payload)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health")

    def submit(
        self,
        spec_dict: dict,
        kind: str = "sweep",
        stream: bool | None = None,
    ) -> dict:
        """Submit a spec payload (``spec.to_dict()``); returns the job
        status dict (``{"id": ..., "state": ...}``).

        ``stream=True`` asks the service to publish per-trial census
        frames on the job's event stream (see :meth:`events`);
        ``None`` leaves the service's watch-triggered default."""
        body: dict = {"kind": kind, "spec": spec_dict}
        if stream is not None:
            body["stream"] = stream
        payload = self._request("POST", "/jobs", body)
        return payload["job"]

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The ``/result`` payload — ``payload["result"]`` holds the
        serialized (possibly partial) sweep/robustness result."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def events(self, job_id: str) -> Iterator[dict]:
        """Follow a job's SSE stream; yields one dict per frame.

        Replays the job's buffered frames, then blocks on live ones
        until the terminal ``end`` frame ends the stream.  The server's
        10s heartbeats keep the socket under the read timeout, so a
        healthy but idle stream never raises.  The connection serves
        the next request once the stream has ended; an iterator
        abandoned before that closes it."""
        conn, response = self._send(
            "GET", f"/jobs/{job_id}/events", None,
            {"Accept": "text/event-stream"},
        )
        if not 200 <= response.status < 300:
            raise self._http_error(response, self._read(conn, response))
        try:
            yield from parse_sse(response)
        except _TRANSPORT_ERRORS as exc:
            raise self._lost(exc) from None
        finally:
            if response.isclosed():
                self._checkin(conn)
            else:
                conn.close()

    def wait(
        self,
        job_id: str,
        poll: float = 0.2,
        timeout: float | None = None,
    ) -> dict:
        """Poll until the job is terminal; returns its final status.

        Raises :class:`ServiceError` if the job ``failed`` or the
        timeout elapses first.  The deadline is checked *before*
        sleeping and the final sleep is capped to the remaining budget,
        so a ``timeout=1`` wait never overshoots by a poll interval.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                if status["state"] == "failed":
                    raise ServiceError(
                        f"job {job_id} failed: {status['error']}"
                    )
                return status
            delay = poll
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"timed out waiting for job {job_id} "
                        f"({status['completed']}/{status['total']} done)"
                    )
                delay = min(poll, remaining)
            time.sleep(delay)

    def store_stats(self) -> dict:
        return self._request("GET", "/store/stats")["store"]

    def store_gc(self) -> dict:
        return self._request("POST", "/store/gc")
