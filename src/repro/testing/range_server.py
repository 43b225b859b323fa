"""In-process HTTP range server over any local storage backend.

The remote backend (``repro.storage.remote``) talks plain HTTP with
``Range:`` requests — which means it can be tested, benchmarked, and
chaos-injected entirely in-process: :func:`serve_backend` spins up a
:class:`RangeServer` (a ``ThreadingHTTPServer`` on a loopback ephemeral
port) that serves the blobs of *any* local
:class:`~repro.storage.backends.StorageBackend`, and
``repro.open(server.url)`` then exercises the real network read path
end to end.

Beyond correctness (206 partial content with ``Content-Range``, 416
past-EOF, 404 for absent blobs, ``ETag`` derived from the backend's
``blob_version``, a JSON name listing at the base path), the server is
an *accountant* and a *saboteur*:

- every request is recorded as a :class:`RequestRecord` — method, blob
  name, raw ``Range`` header, response status — so tests can assert
  "the cold open fetched zero shard payloads" byte-for-byte;
- :meth:`RangeServer.fail_next` queues N scripted error responses
  (default 503), :meth:`RangeServer.stall_next` holds the next N GETs
  before answering them, and :attr:`RangeServer.latency_s` delays every
  response, for retry, deadline and hedging tests.

For payload *corruption* chaos, wrap the local backend in
:class:`~repro.testing.faults.FaultInjectingBackend` before serving it —
the server delegates every read to the backend it was given, so the
whole chaos toolkit composes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional

__all__ = ["RangeServer", "RequestRecord", "serve_backend"]

_RANGE_RE = re.compile(r"bytes=(\d*)-(\d*)\s*$")


@dataclass(frozen=True)
class RequestRecord:
    """One served request: what was asked, and how it was answered."""

    method: str
    #: Unquoted blob name; ``""`` for the base-path listing request.
    name: str
    #: Raw ``Range`` header, or None for whole-blob / HEAD requests.
    range: Optional[str]
    status: int


def _parse_range(spec: str, size: int):
    """``Range`` header -> inclusive ``(start, end)``, or None for 416.

    Handles the three RFC 7233 single-range shapes (``a-b``, ``a-``,
    ``-n``), clamps the end to the blob, and treats everything
    unsatisfiable — malformed, start past EOF, empty suffix — as None.
    """
    match = _RANGE_RE.match(spec.strip())
    if match is None:
        return None
    first, last = match.group(1), match.group(2)
    if not first:
        if not last or int(last) == 0:
            return None
        return max(0, size - int(last)), size - 1
    start = int(first)
    if start >= size:
        return None
    end = size - 1 if not last else min(int(last), size - 1)
    if end < start:
        return None
    return start, end


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive matters here: the hydration path issues many small
    # ranged GETs per blob, and HTTP/1.0's connection-per-request would
    # distort every latency measurement the benchmarks make.
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:  # silence stderr chatter
        pass

    def do_GET(self) -> None:
        self._serve("GET")

    def do_HEAD(self) -> None:
        self._serve("HEAD")

    # ------------------------------------------------------------------
    def _serve(self, method: str) -> None:
        server: "RangeServer" = self.server  # type: ignore[assignment]
        if server.latency_s > 0:
            time.sleep(server.latency_s)
        name = urllib.parse.unquote(self.path.lstrip("/"))
        range_header = self.headers.get("Range")
        if method == "GET":
            stall = server._pop_stall()
            if stall:
                time.sleep(stall)

        fault = server._pop_fault()
        if fault is not None:
            server._record(method, name, range_header, fault)
            self._respond(fault, b"injected fault", method)
            return

        backend = server.backend
        if name == "":
            try:
                names = sorted(backend.list())
            except Exception:
                names = []
            server._record(method, name, range_header, 200)
            self._respond(200, json.dumps(names).encode("utf-8"), method,
                          content_type="application/json")
            return

        try:
            if not backend.exists(name):
                server._record(method, name, range_header, 404)
                self._respond(404, b"no such blob", method)
                return
            size = server._size(name)
            extra = {}
            etag = server._etag(name)
            if etag is not None:
                extra["ETag"] = etag
            if method == "HEAD":
                server._record("HEAD", name, range_header, 200)
                self._respond(200, b"", "HEAD", extra=extra,
                              content_length=size)
                return
            if range_header is not None:
                span = _parse_range(range_header, size)
                if span is None:
                    extra["Content-Range"] = f"bytes */{size}"
                    server._record("GET", name, range_header, 416)
                    self._respond(416, b"", "GET", extra=extra)
                    return
                start, end = span
                payload = server._read(name, start, end - start + 1)
                extra["Content-Range"] = f"bytes {start}-{end}/{size}"
                server._record("GET", name, range_header, 206)
                self._respond(206, payload, "GET", extra=extra)
                return
            payload = server._read(name, 0, size)
            server._record("GET", name, None, 200)
            self._respond(200, payload, "GET", extra=extra)
        except (BrokenPipeError, ConnectionResetError):
            raise
        except Exception as exc:  # backend fault -> 500, not a hang
            server._record(method, name, range_header, 500)
            self._respond(500, f"backend error: {exc}".encode("utf-8"),
                          method)

    def _respond(self, status: int, body: bytes, method: str, *,
                 extra=None, content_type: str = "application/octet-stream",
                 content_length: Optional[int] = None) -> None:
        try:
            self.send_response(status)
            self.send_header("Accept-Ranges", "bytes")
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(
                len(body) if content_length is None else content_length))
            for key, value in (extra or {}).items():
                self.send_header(key, value)
            self.end_headers()
            if method != "HEAD" and body:
                self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up (deadline, retry) — not our problem


class RangeServer(ThreadingHTTPServer):
    """Loopback HTTP server exposing a local backend's blobs with ranges.

    Construct directly (then drive ``serve_forever`` yourself) or — the
    usual way — through the :func:`serve_backend` context manager.
    """

    daemon_threads = True

    def __init__(self, backend):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.backend = backend
        #: Every request served, in arrival order (see helpers below).
        self.requests: List[RequestRecord] = []
        #: Fixed delay applied to every response (seconds).
        self.latency_s = 0.0
        self._faults: List[int] = []
        self._stalls: List[float] = []
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- sabotage ----------------------------------------------------------
    def fail_next(self, n: int = 1, status: int = 503) -> None:
        """Answer the next ``n`` requests with ``status`` (then recover)."""
        with self._lock:
            self._faults.extend([int(status)] * int(n))

    def stall_next(self, n: int = 1, seconds: float = 1.0) -> None:
        """Hold each of the next ``n`` GETs ``seconds`` before answering
        it (a stalled replica: the client sees no response; a re-issue
        after them is answered at once)."""
        with self._lock:
            self._stalls.extend([float(seconds)] * int(n))

    def _pop_fault(self) -> Optional[int]:
        with self._lock:
            return self._faults.pop(0) if self._faults else None

    def _pop_stall(self) -> float:
        with self._lock:
            return self._stalls.pop(0) if self._stalls else 0.0

    # -- accounting --------------------------------------------------------
    def _record(self, method: str, name: str, range_header, status: int):
        with self._lock:
            self.requests.append(
                RequestRecord(method, name, range_header, status))

    def reset_requests(self) -> None:
        """Forget the request log (keeps faults/latency settings)."""
        with self._lock:
            self.requests.clear()

    def request_count(self, name: Optional[str] = None,
                      method: Optional[str] = None) -> int:
        """Requests served, optionally filtered by blob name / method."""
        with self._lock:
            return sum(1 for r in self.requests
                       if (name is None or r.name == name)
                       and (method is None or r.method == method))

    def blobs_fetched(self) -> List[str]:
        """Sorted names of blobs whose *bytes* were requested (GETs;
        the base-path listing and HEAD probes don't count)."""
        with self._lock:
            return sorted({r.name for r in self.requests
                           if r.name and r.method == "GET"})

    # -- backend access (handler side) ------------------------------------
    def _size(self, name: str) -> int:
        sizer = getattr(self.backend, "size", None)
        if sizer is not None:
            return int(sizer(name))
        return len(self.backend.read_bytes(name))

    def _read(self, name: str, start: int, length: int) -> bytes:
        reader = getattr(self.backend, "read_range", None)
        if reader is not None:
            return bytes(reader(name, start, length))
        return bytes(self.backend.read_bytes(name)[start:start + length])

    def _etag(self, name: str) -> Optional[str]:
        versioner = getattr(self.backend, "blob_version", None)
        if versioner is None:
            return None
        try:
            version = versioner(name)
        except Exception:
            return None
        if version is None:
            return None
        digest = hashlib.sha256(repr(version).encode("utf-8")).hexdigest()
        return f'"{digest[:32]}"'


@contextlib.contextmanager
def serve_backend(backend):
    """Serve ``backend`` over loopback HTTP for the ``with`` body.

    Yields the running :class:`RangeServer`; ``server.url`` is the
    ``http://127.0.0.1:<port>`` base that ``repro.open`` (or a raw
    ``HttpBackend``) points at.  The server and its worker threads are
    shut down on exit.
    """
    server = RangeServer(backend)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-range-server", daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
