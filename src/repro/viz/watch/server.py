"""The ``repro-net watch`` HTTP server — stdlib only, like the service.

:class:`WatchServer` serves one :class:`~repro.core.trace.FrameLog`
(filled by a :mod:`~repro.viz.watch.sources` pump) on four routes::

    GET /         the dashboard page (EventSource client)
    GET /events   the frame stream as server-sent events
    GET /census   JSON snapshot: latest census/meta/status + fault list
    GET /health   liveness + frame count

``/events`` reuses the exact SSE writer the experiment service uses
(:mod:`repro.service.sse`), so a browser pointed at ``watch`` and a
client following ``/jobs/<id>/events`` on the service see the same wire
format.  ``/census`` exists for scripts and CI smoke checks that want
the current picture without holding a stream open.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.trace import FrameLog
from repro.service.sse import HEARTBEAT_SECONDS, write_sse
from repro.viz.watch.page import render_page

#: Most recent fault frames the /census snapshot retains.
CENSUS_FAULT_TAIL = 50


def census_snapshot(log: FrameLog) -> dict:
    """Fold the log's frames into the current-picture JSON payload."""
    latest_census: dict | None = None
    latest_meta: dict | None = None
    latest_status: dict | None = None
    end: dict | None = None
    faults: list[dict] = []
    frames = log.frames()
    for frame in frames:
        kind = frame.get("type")
        if kind == "census":
            latest_census = frame
        elif kind == "meta":
            latest_meta = frame
        elif kind == "status":
            latest_status = frame
        elif kind == "fault":
            faults.append(frame)
        elif kind in ("end", "run-end"):
            end = frame
    return {
        "ok": True,
        "frames": len(frames),
        "dropped": log.dropped,
        "closed": log.closed,
        "meta": latest_meta,
        "status": latest_status,
        "census": latest_census,
        "faults": faults[-CENSUS_FAULT_TAIL:],
        "end": end,
    }


class WatchServer:
    """Threaded HTTP server over one frame log.

    ``port=0`` binds an ephemeral port (the tests' and CLI's default);
    ``start()`` returns the bound ``(host, port)``.  Handler threads
    are daemons, so a live ``/events`` follower never blocks
    :meth:`stop`.
    """

    def __init__(
        self,
        log: FrameLog,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        title: str = "repro-net watch",
    ) -> None:
        self.log = log
        self.host = host
        self.port = port
        self.title = title
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> tuple[str, int]:
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self._httpd.daemon_threads = True
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-watch-http",
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        """Close the log (ends every follower) and shut the server down."""
        self.log.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def _make_handler(server: WatchServer) -> type:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Nagle off for the same reason as the service's handler: the
        # body of a kept-alive response must not wait for a delayed ACK.
        disable_nagle_algorithm = True

        def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
            pass

        def _send(self, status: int, content_type: str, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, payload: dict) -> None:
            self._send(
                status, "application/json",
                json.dumps(payload).encode("utf-8"),
            )

        def do_GET(self) -> None:
            path = self.path.split("?", 1)[0]
            if path in ("", "/"):
                body = render_page(server.title).encode("utf-8")
                self._send(200, "text/html; charset=utf-8", body)
            elif path == "/events":
                write_sse(
                    self, server.log.follow(heartbeat=HEARTBEAT_SECONDS)
                )
            elif path == "/census":
                self._send_json(200, census_snapshot(server.log))
            elif path == "/health":
                self._send_json(
                    200,
                    {"ok": True, "frames": len(server.log.frames()),
                     "closed": server.log.closed},
                )
            else:
                self._send_json(404, {"error": f"no route GET {path}"})

    return Handler
