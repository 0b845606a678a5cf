"""Server-sent events over stdlib HTTP: writer and parser.

One wire format for the whole observability layer — the experiment
service's ``GET /jobs/<id>/events`` route writes it, and
:meth:`ServiceClient.events` and the ``repro-net watch`` dashboard's
``EventSource`` read it.  Frames are JSON objects, one per SSE
``data:`` record; heartbeat comment lines (``: keep-alive``) flow
during idle stretches so both sides detect dead peers without a frame
backlog.

An HTTP/1.1 request gets the stream in chunked transfer encoding: the
terminal zero-length chunk ends the stream and the connection stays
open for the client's next request (the job's ``/result``).  An HTTP/1.0
request gets the close-delimited stream, which it can parse.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

#: Seconds of silence between heartbeat comments on an idle stream.
HEARTBEAT_SECONDS = 10.0


def send_sse_headers(handler) -> bool:
    """Start an SSE response on a ``BaseHTTPRequestHandler``; returns
    whether the body must be sent chunked.

    The stream is unbounded, so it has no ``Content-Length``: an
    HTTP/1.1 request gets ``Transfer-Encoding: chunked`` and keeps its
    connection, anything older gets ``Connection: close`` (which
    ``send_header`` turns into ``handler.close_connection``).
    """
    chunked = handler.request_version == "HTTP/1.1"
    handler.send_response(200)
    handler.send_header("Content-Type", "text/event-stream")
    handler.send_header("Cache-Control", "no-cache")
    if chunked:
        handler.send_header("Transfer-Encoding", "chunked")
    else:
        handler.send_header("Connection", "close")
    handler.end_headers()
    return chunked


def write_sse(handler, frames: Iterable[dict | None]) -> None:
    """Stream ``frames`` (dicts; ``None`` = heartbeat) to an SSE
    response until the iterator ends or the client disconnects."""
    chunked = send_sse_headers(handler)
    try:
        for frame in frames:
            if frame is None:
                record = b": keep-alive\n\n"
            else:
                record = b"data: " + json.dumps(frame).encode("utf-8") + b"\n\n"
            if chunked:
                record = b"%x\r\n%s\r\n" % (len(record), record)
            handler.wfile.write(record)
            handler.wfile.flush()
        if chunked:
            handler.wfile.write(b"0\r\n\r\n")
    except OSError:
        # The client went away mid-stream: the connection is done.
        handler.close_connection = True


def parse_sse(stream: Iterable[bytes]) -> Iterator[dict]:
    """Decode an SSE byte stream into its JSON frames.

    Accepts any iterable of lines (``http.client.HTTPResponse`` is
    one); comment lines are dropped, multi-line ``data:`` records are
    joined per the SSE spec.
    """
    data_lines: list[str] = []
    for raw in stream:
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            if data_lines:
                yield json.loads("\n".join(data_lines))
                data_lines = []
            continue
        if line.startswith(":"):
            continue
        if line.startswith("data:"):
            data_lines.append(line[5:].lstrip())
    if data_lines:
        yield json.loads("\n".join(data_lines))
