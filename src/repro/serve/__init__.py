"""Serving tier: a coalescing lookup service over shared read stores.

The fused-gather read path amortizes best over large batches, but
multi-user traffic arrives as many tiny lookups.  This package turns one
into the other: an asyncio :class:`~repro.serve.server.LookupServer`
admits small concurrent ``lookup(keys)`` requests and a
:class:`~repro.serve.batcher.Batcher` coalesces them — bounded by the
:class:`~repro.serve.policy.AdmissionPolicy` size/delay triggers — into
one fused store call per flush, scattering bit-identical per-request
slices back to every awaiting future (identical keys across requests
are deduped into one gather position).

Three ways in:

- in-process: ``repro.serving(url)`` → a synchronous
  :class:`~repro.serve.server.Client` (tests, embedding);
- network: :func:`~repro.serve.transport.serve_tcp` /
  :class:`~repro.serve.transport.TCPClient`, JSON lines over TCP;
- operational: ``python -m repro serve <url>``.

``docs/serving.md`` covers the policy knobs, the
:class:`~repro.serve.stats.ServeStats` fields (batches formed, coalesce
ratio, queue depth, per-tenant p50/p99), and deployment shapes.
"""

from .batcher import Batcher, PendingRequest, QueueFullError, TenantQuotaError
from .policy import AdmissionPolicy
from .server import Client, LookupServer
from .shedding import (LoadShedder, ServerDrainingError,
                       ServerOverloadedError, SheddingPolicy)
from .stats import ServeStats, TenantStats
from .transport import BackgroundTCPServer, TCPClient, serve_tcp, shut_down

__all__ = [
    "AdmissionPolicy",
    "Batcher",
    "PendingRequest",
    "QueueFullError",
    "TenantQuotaError",
    "Client",
    "LookupServer",
    "LoadShedder",
    "SheddingPolicy",
    "ServerOverloadedError",
    "ServerDrainingError",
    "ServeStats",
    "TenantStats",
    "TCPClient",
    "BackgroundTCPServer",
    "serve_tcp",
    "run_forever",
]


def run_forever(store, host: str = "127.0.0.1", port: int = 0,
                policy=None, stats=None, shedder=None,
                on_ready=None) -> None:
    """Serve ``store`` over TCP until signalled (the CLI's engine).

    ``on_ready(port)`` fires once the socket is listening — with
    ``port=0`` this is how the caller learns the assigned port.

    Shutdown is **graceful**: SIGTERM or SIGINT (or a
    ``KeyboardInterrupt`` on platforms without signal handlers) stops
    the listener, then :meth:`LookupServer.drain` refuses new
    admissions and finishes every request already admitted — queued or
    in flight — before the function returns, and idle connections are
    closed (the same :func:`~repro.serve.transport.shut_down` as
    :class:`BackgroundTCPServer`).  Zero in-flight work is lost to a
    shutdown; the process exits 0.
    """
    import asyncio
    import signal

    async def _main() -> None:
        server = LookupServer(store, policy=policy, stats=stats,
                              shedder=shedder)
        tcp = await serve_tcp(server, host, port)
        if on_ready is not None:
            on_ready(tcp.sockets[0].getsockname()[1])
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                # Platforms/loops without signal support (Windows
                # Proactor, embedded loops) fall back to the
                # KeyboardInterrupt path below.
                pass
        try:
            await stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await shut_down(tcp, server.drain)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
