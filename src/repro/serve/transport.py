"""TCP/JSON-lines transport for the coalescing lookup server.

Wire format: one JSON object per ``\\n``-terminated line, both ways.

Request fields:

- ``id`` — opaque; echoed on the response so pipelined requests match up;
- ``op`` — ``"lookup"`` (default), ``"stats"``, or ``"ping"``;
- ``keys`` — ``{column: [int, ...]}`` for lookups;
- ``tenant`` — optional stats bucket (defaults to the server default);
- ``deadline_ms`` — optional end-to-end budget for this lookup; an
  exhausted budget answers ``error: "DeadlineExceeded: ..."`` for that
  request alone (the connection, and its batchmates, live on).

Responses carry the echoed ``id`` plus either ``found``/``values``
(lookup), ``stats`` (a :meth:`~repro.serve.stats.ServeStats.snapshot`,
including ``flushes``: batches flushed by ``size`` / ``arrival`` /
``delay`` / ``drain``), ``pong`` (ping), or ``error`` (a message string;
the connection stays open — one bad request fails alone, same
containment as in-process).  A line that is not JSON, or is JSON but not
an object, is answered with ``{"id": null, "error": ...}``.
Error responses also carry ``error_type`` (the server-side exception
class name) and, for overload rejections, ``retry_after_ms`` — so
:class:`TCPClient` re-raises **typed** errors
(:class:`~repro.serve.shedding.ServerOverloadedError` with its
retry-after hint, :class:`~repro.serve.shedding.ServerDrainingError`)
instead of a generic ``RuntimeError`` string.

Control verbs for a fronting balancer / process manager:

- ``op: "health"`` — the server's readiness/liveness snapshot
  (``ready`` flips false the moment a drain starts;
  ``expected_requests`` is how many requests a forming batch currently
  waits for before it flushes without the timer);
- ``op: "drain"`` — zero-downtime shutdown: stops admission, finishes
  every admitted request, answers with the drain report.

Every request line becomes its own task on the server loop, so requests
pipelined on one connection — and across connections — coalesce into the
same fused batches as in-process callers.  :class:`TCPClient` is the
synchronous counterpart used by tests, the benchmark's network mode, and
anyone poking a server with a socket.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Dict, Optional

import numpy as np

from ..resilience.deadline import default_timeout
from ..resilience.retry import RetryPolicy, retry
from .server import DEFAULT_TENANT, LookupServer
from .shedding import ServerDrainingError, ServerOverloadedError

__all__ = ["serve_tcp", "TCPClient", "BackgroundTCPServer", "encode_result"]

#: Server-side exception class names the client maps back to a typed
#: overload error (all carry an optional retry-after hint).
_OVERLOAD_ERROR_TYPES = frozenset(
    {"ServerOverloadedError", "QueueFullError", "TenantQuotaError"})

#: Refuse lines longer than this (64 MiB) instead of buffering forever.
MAX_LINE_BYTES = 64 * 1024 * 1024


def encode_result(result) -> Dict[str, list]:
    """JSON-encodable form of a :class:`LookupResult`."""
    return {
        "found": result.found.tolist(),
        "values": {name: np.asarray(arr).tolist()
                   for name, arr in result.values.items()},
    }


async def _handle_line(server: LookupServer, line: bytes) -> Dict:
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"id": None, "error": f"bad JSON: {exc}"}
    if not isinstance(message, dict):
        return {"id": None, "error": "a request line must be a JSON "
                f"object, got {type(message).__name__}"}
    request_id = message.get("id")
    op = message.get("op", "lookup")
    try:
        if op == "ping":
            return {"id": request_id, "pong": True}
        if op == "stats":
            return {"id": request_id, "stats": server.stats.snapshot()}
        if op == "health":
            return {"id": request_id, "health": server.health}
        if op == "drain":
            report = await server.drain()
            return {"id": request_id, "drain": report}
        if op != "lookup":
            return {"id": request_id, "error": f"unknown op {op!r}"}
        raw = message.get("keys")
        if not isinstance(raw, dict):
            return {"id": request_id,
                    "error": "lookup needs keys: {column: [ints]}"}
        keys = {name: np.asarray(values) for name, values in raw.items()}
        result = await server.lookup(keys,
                                     message.get("tenant", DEFAULT_TENANT),
                                     deadline_ms=message.get("deadline_ms"))
        response = {"id": request_id}
        response.update(encode_result(result))
        return response
    except asyncio.CancelledError:
        return {"id": request_id, "error": "server closed",
                "error_type": "CancelledError"}
    except Exception as exc:  # containment: this request fails alone
        response = {"id": request_id,
                    "error": f"{type(exc).__name__}: {exc}",
                    "error_type": type(exc).__name__}
        retry_after = getattr(exc, "retry_after_s", None)
        if retry_after is not None:
            response["retry_after_ms"] = retry_after * 1000.0
        return response


async def serve_tcp(server: LookupServer, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
    """Start listening; returns the asyncio server (caller owns lifetime).

    ``port=0`` picks a free port — read it back from
    ``tcp_server.sockets[0].getsockname()[1]``.
    """

    async def handle_connection(reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        tasks: set = set()

        async def respond(line: bytes) -> None:
            response = await _handle_line(server, line)
            payload = (json.dumps(response) + "\n").encode()
            async with write_lock:
                writer.write(payload)
                try:
                    await writer.drain()
                except ConnectionError:
                    pass

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError,
                        asyncio.CancelledError):  # cancelled: shutdown
                    break
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    break
                # One task per request: pipelined lines coalesce instead
                # of serializing behind each other's batch.
                task = asyncio.ensure_future(respond(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            try:
                if tasks:
                    await asyncio.gather(*tuple(tasks),
                                         return_exceptions=True)
            finally:  # cancelled mid-gather: still close the connection
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, asyncio.CancelledError):
                    # Cancelled by a shutdown while closing: the
                    # connection is going anyway, and a handler that
                    # ends cancelled makes asyncio's stream callback log
                    # a traceback.
                    pass

    return await asyncio.start_server(handle_connection, host, port,
                                      limit=MAX_LINE_BYTES)


async def shut_down(tcp: asyncio.AbstractServer, stop_server):
    """The one shutdown of both TCP hosts (:class:`BackgroundTCPServer`,
    :func:`repro.serve.run_forever`): stop the listener, then
    ``stop_server()``, then cancel and await every task left on the
    loop — the handlers of idle connections, parked in ``readline()`` —
    and only then ``wait_closed()``, which from Python 3.12.1 waits for
    every open connection.  (A handler left suspended would run its
    ``finally``, ``writer.close()``, on a closed loop once collected.)
    Returns ``stop_server()``'s result."""
    tcp.close()
    result = await stop_server()
    rest = asyncio.all_tasks() - {asyncio.current_task()}
    for task in rest:
        task.cancel()
    await asyncio.gather(*rest, return_exceptions=True)
    await tcp.wait_closed()
    return result


class BackgroundTCPServer:
    """A TCP lookup server on its own event-loop thread.

    The embeddable form of ``python -m repro serve``: tests and
    benchmarks start one in-process, connect :class:`TCPClient`\\ s to
    ``.port``, and tear it down with :meth:`close` (which drains
    in-flight batches before stopping the loop).
    """

    def __init__(self, store, policy=None, stats=None, shedder=None,
                 host: str = "127.0.0.1", port: int = 0,
                 control_timeout: Optional[float] = None):
        import threading

        self.server = LookupServer(store, policy=policy, stats=stats,
                                   shedder=shedder)
        self.host = host
        #: Bound on control-plane waits (startup, shutdown drain, loop
        #: join); defaults to the fleet-wide
        #: :data:`~repro.resilience.DEFAULT_TIMEOUT_S`.
        self.control_timeout = default_timeout(control_timeout)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-tcp", daemon=True)
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            serve_tcp(self.server, host, port), self._loop)
        self._tcp = future.result(timeout=self.control_timeout)
        self.port: int = self._tcp.sockets[0].getsockname()[1]
        self._closed = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    @property
    def stats(self):
        return self.server.stats

    def connect(self, timeout: Optional[float] = None) -> "TCPClient":
        """A fresh blocking client bound to this server."""
        return TCPClient(self.host, self.port, timeout=timeout)

    def drain(self) -> Dict[str, int]:
        """Gracefully drain: stop the listener, refuse new admissions,
        finish every admitted request, stop the loop.  Returns the
        drain report; afterwards the server is closed."""
        if self._closed:
            return {"flushed_requests": 0, "awaited_batches": 0}
        return self._shut_down(self.server.drain)

    def close(self) -> None:
        if not self._closed:
            self._shut_down(self.server.aclose)

    def _shut_down(self, stop_server):
        """:func:`shut_down` on the server's loop, then stop and close
        the loop."""
        self._closed = True
        result = asyncio.run_coroutine_threadsafe(
            shut_down(self._tcp, stop_server),
            self._loop).result(timeout=self.control_timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=self.control_timeout)
        self._loop.close()
        return result

    def __enter__(self) -> "BackgroundTCPServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TCPClient:
    """Blocking JSON-lines client for one server connection.

    One request at a time per client instance; spin up one client per
    thread for concurrency (responses are matched by ``id``, so even a
    shared connection would stay coherent — this class just keeps the
    sync API simple).

    ``timeout`` (default :data:`~repro.resilience.DEFAULT_TIMEOUT_S`)
    bounds the connect and every socket read/write.  The connect itself
    retries transient refusals/resets up to ``connect_attempts`` times
    with jittered exponential backoff — a server still binding its port
    costs a few milliseconds, not a failure — then raises the last
    ``OSError``.
    """

    #: Transient-connect retry schedule (attempts beyond the first cost
    #: ~10-100 ms each; DNS/EACCES-style failures are OSErrors too and
    #: retry the same bounded number of times before surfacing).
    CONNECT_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.2,
                                retry_on=(ConnectionError, OSError))

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = None,
                 connect_attempts: Optional[int] = None):
        bound = default_timeout(timeout)
        policy = self.CONNECT_RETRY
        if connect_attempts is not None:
            policy = RetryPolicy(attempts=max(1, int(connect_attempts)),
                                 base_delay=policy.base_delay,
                                 max_delay=policy.max_delay,
                                 retry_on=policy.retry_on)
        self._sock = retry(
            lambda: socket.create_connection((host, port), timeout=bound),
            policy)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    def _call(self, message: Dict) -> Dict:
        self._next_id += 1
        message = dict(message, id=self._next_id)
        self._file.write((json.dumps(message) + "\n").encode())
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if response.get("id") != self._next_id:
            raise RuntimeError(f"response id {response.get('id')!r} does not "
                               f"match request id {self._next_id}")
        return response

    def lookup(self, keys: Dict, tenant: Optional[str] = None,
               deadline_ms: Optional[float] = None) -> Dict:
        """Lookup; returns ``{"found": [...], "values": {col: [...]}}``.

        ``deadline_ms`` rides the wire as the request's end-to-end
        budget on the server side.  Server-side errors re-raise typed
        where the wire says how: overload rejections raise
        :class:`~repro.serve.shedding.ServerOverloadedError` (with
        ``retry_after_s`` from the server's hint — catchable as the
        ``RuntimeError`` older callers already handle), a draining
        server raises
        :class:`~repro.serve.shedding.ServerDrainingError`, and
        everything else stays a ``RuntimeError`` with the server's
        message (including a blown deadline, ``DeadlineExceeded: ...``).
        """
        message: Dict = {"op": "lookup",
                         "keys": {name: np.asarray(values).tolist()
                                  for name, values in keys.items()}}
        if tenant is not None:
            message["tenant"] = tenant
        if deadline_ms is not None:
            message["deadline_ms"] = float(deadline_ms)
        response = self._call(message)
        if "error" in response:
            raise self._typed_error(response)
        return response

    @staticmethod
    def _typed_error(response: Dict) -> RuntimeError:
        """Rebuild a typed exception from an error response's
        ``error_type``/``retry_after_ms`` fields (plain ``RuntimeError``
        for everything the client has no type for)."""
        error_type = response.get("error_type")
        message = response["error"]
        if error_type in _OVERLOAD_ERROR_TYPES:
            retry_ms = response.get("retry_after_ms")
            return ServerOverloadedError(
                message,
                retry_after_s=(retry_ms / 1000.0
                               if retry_ms is not None else None))
        if error_type == "ServerDrainingError":
            return ServerDrainingError(message)
        return RuntimeError(message)

    def stats(self) -> Dict:
        """The server's live :meth:`ServeStats.snapshot`."""
        response = self._call({"op": "stats"})
        if "error" in response:
            raise RuntimeError(response["error"])
        return response["stats"]

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    def health(self) -> Dict:
        """The server's readiness/liveness snapshot."""
        response = self._call({"op": "health"})
        if "error" in response:
            raise self._typed_error(response)
        return response["health"]

    def drain(self) -> Dict:
        """Ask the server to drain; returns its drain report.

        The server finishes every admitted request before answering, so
        this blocks for the in-flight work (bounded by the client's
        socket timeout).
        """
        response = self._call({"op": "drain"})
        if "error" in response:
            raise self._typed_error(response)
        return response["drain"]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TCPClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
