"""Zero-downtime drain, the health surface, and graceful CLI shutdown.

The drain contract (``docs/serving.md``): from the instant a drain
starts, new admissions are refused with ``ServerDrainingError`` and
``health["ready"]`` reads false — but every request already admitted,
queued or in an executing batch, completes normally.  Zero in-flight
work is lost.  ``python -m repro serve`` wires SIGTERM/SIGINT to the
same path and exits 0.
"""

import asyncio
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.serve import (AdmissionPolicy, BackgroundTCPServer, Client,
                         LookupServer, ServerDrainingError, TCPClient)
from repro.testing import ChaosStore

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def keys_of(values) -> dict:
    return {"sku": np.asarray(values, dtype=np.int64)}


class TestServerDrain:
    def test_drain_before_first_request_just_seals(self, mono_store):
        async def scenario():
            server = LookupServer(mono_store)
            report = await server.drain()
            assert report == {"flushed_requests": 0, "awaited_batches": 0}
            with pytest.raises(RuntimeError):
                await server.lookup(keys_of([3]))
        asyncio.run(scenario())

    def test_drain_completes_queued_and_inflight_work(self, mono_store):
        # Requests in three states when drain starts: resolved, queued in
        # the forming batch, and mid-store-call.  Drain must finish the
        # latter two and refuse the late arrival.
        chaos = ChaosStore(mono_store, latency_s=0.05)

        async def scenario():
            server = LookupServer(
                chaos, AdmissionPolicy(max_batch_keys=4, max_delay_ms=60.0))
            inflight = asyncio.ensure_future(
                server.lookup(keys_of([0, 3, 6, 9])))     # flushes: size
            while not server._inflight:
                await asyncio.sleep(0.001)
            queued = asyncio.ensure_future(server.lookup(keys_of([12])))
            await asyncio.sleep(0)                         # let it admit
            assert len(server._batcher) == 1
            draining = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0)  # drain has started, not finished
            # Mid-drain arrivals are refused typed (route elsewhere)...
            with pytest.raises(ServerDrainingError):
                await server.lookup(keys_of([15]))
            report = await draining
            # ...and post-drain the server is plain closed.
            with pytest.raises(RuntimeError):
                await server.lookup(keys_of([18]))
            first, second = await inflight, await queued
            assert first.found.tolist() == [True] * 4
            assert second.found.tolist() == [True]
            assert report["flushed_requests"] == 1
            assert report["awaited_batches"] >= 1
        asyncio.run(scenario())

    def test_drain_is_idempotent(self, mono_store):
        async def scenario():
            server = LookupServer(mono_store)
            await server.lookup(keys_of([3]))
            await server.drain()
            report = await server.drain()
            assert report["flushed_requests"] == 0
        asyncio.run(scenario())

    def test_drain_flushes_drr_leftovers(self, mono_store):
        # Overload can leave requests the DRR clip didn't fit; drain
        # must loop flushes until the queue is truly empty.
        async def scenario():
            # Two tenants around a 10-key budget: the size-triggered
            # flush DRR-clips and leaves one flood request queued for
            # the (distant) delay timer.
            server = LookupServer(
                mono_store,
                AdmissionPolicy(max_batch_keys=10, max_delay_ms=5_000.0))
            waiters = [asyncio.ensure_future(
                server.lookup(keys_of([9 * i, 9 * i + 3, 9 * i + 6]),
                              tenant="flood"))
                for i in range(3)]
            waiters.append(asyncio.ensure_future(
                server.lookup(keys_of([300, 303, 306, 309]),
                              tenant="light")))
            await asyncio.sleep(0.05)
            assert len(server._batcher) >= 1  # leftover waiting on timer
            report = await server.drain()
            results = await asyncio.gather(*waiters)
            assert all(r.found.tolist() == [True] * r.found.size
                       for r in results)
            assert report["flushed_requests"] >= 1
            assert len(server._batcher) == 0
        asyncio.run(scenario())

    def test_health_transitions(self, mono_store):
        async def scenario():
            server = LookupServer(mono_store)
            await server.lookup(keys_of([3]))
            health = server.health
            assert health["ready"] and health["live"]
            assert not health["draining"]
            assert health["shed_level"] == "healthy"
            await server.drain()
            health = server.health
            assert not health["ready"]
            assert not health["live"]  # fully closed after drain returns
            assert health["draining"]
        asyncio.run(scenario())


class TestClientDrain:
    def test_sync_drain_loses_nothing(self, mono_store):
        chaos = ChaosStore(mono_store, latency_s=0.03)
        client = Client(chaos, AdmissionPolicy(max_batch_keys=8,
                                               max_delay_ms=20.0))
        futures = [client.submit(keys_of([3 * i]), tenant=f"t{i % 4}")
                   for i in range(24)]
        report = client.drain(timeout=60)
        for future in futures:
            assert future.result(timeout=30).found.tolist() == [True]
        assert report["awaited_batches"] >= 1
        with pytest.raises(RuntimeError):
            client.lookup(keys_of([3]))
        client.drain()  # idempotent, returns zeros
        mono_store_alive = mono_store.lookup(keys_of([3]))
        assert mono_store_alive.found.tolist() == [True]

    def test_drain_report_counts_queued_flushes(self, mono_store):
        client = Client(mono_store, AdmissionPolicy(max_batch_keys=10_000,
                                                    max_delay_ms=5_000.0))
        futures = [client.submit(keys_of([3 * i])) for i in range(5)]
        for _ in range(200):
            if client.server.health["queued_requests"] == 5:
                break
            time.sleep(0.005)
        report = client.drain(timeout=60)
        assert report["flushed_requests"] == 5
        assert all(f.result(timeout=10).found.tolist() == [True]
                   for f in futures)


class TestTCPDrain:
    def test_health_and_drain_verbs(self, sharded_store):
        server = BackgroundTCPServer(sharded_store)
        try:
            with server.connect() as tcp:
                health = tcp.health()
                assert health["ready"] and health["live"]
                tcp.lookup({"sku": [3, 9999]})
                report = tcp.drain()
                assert report["flushed_requests"] == 0
                health = tcp.health()
                assert not health["ready"]
                assert not health["live"]
                with pytest.raises(RuntimeError):
                    tcp.lookup({"sku": [3]})  # drained == closed
        finally:
            server.close()

    def test_background_server_drain_stops_listener(self, sharded_store):
        server = BackgroundTCPServer(sharded_store)
        with server.connect() as tcp:
            tcp.lookup({"sku": [3]})
        report = server.drain()
        assert "flushed_requests" in report
        with pytest.raises(OSError):
            TCPClient(server.host, server.port, timeout=0.5,
                      connect_attempts=1)
        server.drain()  # idempotent
        server.close()  # also a no-op now

    def test_inflight_tcp_request_survives_drain(self, mono_store):
        # A lookup racing the drain verb on another connection must
        # complete (admitted work finishes) or be refused typed (never
        # admitted) — nothing hangs, nothing is dropped untyped.
        chaos = ChaosStore(mono_store, latency_s=0.05)
        server = BackgroundTCPServer(
            chaos, AdmissionPolicy(max_batch_keys=4, max_delay_ms=10.0))
        outcome = {}

        def slow_lookup():
            with server.connect(timeout=30) as tcp:
                try:
                    outcome["result"] = tcp.lookup({"sku": [0, 3, 6, 9]})
                except ServerDrainingError as exc:
                    outcome["refused"] = exc

        worker = threading.Thread(target=slow_lookup)
        worker.start()
        while not server.server._inflight \
                and not len(server.server._batcher) \
                and worker.is_alive():
            time.sleep(0.002)
        report = server.drain()
        worker.join(timeout=30)
        assert not worker.is_alive()
        if "result" in outcome:
            assert outcome["result"]["found"] == [True] * 4
        else:
            assert isinstance(outcome["refused"], ServerDrainingError)
        assert "awaited_batches" in report

    def test_shutdown_meeting_a_closing_handler_logs_no_error(
            self, mono_store, monkeypatch, caplog):
        """A connection whose handler is already closing — its client
        hung up, so it sits in ``writer.wait_closed()`` — is cancelled
        there by the shutdown.  The handler must end cleanly: a handler
        task that ends cancelled makes asyncio's stream callback log an
        ``Exception in callback`` traceback."""
        parked = threading.Event()

        async def wait_closed_until_cancelled(self):
            parked.set()
            await asyncio.Event().wait()  # still closing at shutdown

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            wait_closed_until_cancelled)
        caplog.set_level(logging.ERROR, logger="asyncio")
        server = BackgroundTCPServer(mono_store)
        try:
            socket.create_connection((server.host, server.port),
                                     timeout=10).close()
            assert parked.wait(timeout=10)
        finally:
            server.close()
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio"] == []


#: ``python -m repro`` with Python 3.12.1's ``Server.wait_closed``: from
#: that release it waits for every open connection, where older ones
#: return once the listener is closed.  Patched in on older interpreters
#: so an idle client's effect on shutdown is the same on every version.
SERVE_WITH_NEW_WAIT_CLOSED = """
import asyncio.base_events
import sys

if sys.version_info < (3, 12, 1):
    async def wait_closed(self):
        if self._waiters is None:
            return
        waiter = self._loop.create_future()
        self._waiters.append(waiter)
        await waiter

    asyncio.base_events.Server.wait_closed = wait_closed

from repro.cli import main

sys.exit(main(sys.argv[1:]))
"""


class TestCLIGracefulShutdown:
    @pytest.fixture
    def serve_cli(self, tmp_path):
        """``repro serve`` on a small sharded store; yields
        ``(process, port)`` and kills the process if a test left it."""
        keys = np.arange(150, dtype=np.int64) * 2
        table = repro.ColumnTable({"k": keys, "v": keys % 23}, key=("k",))
        url = str(tmp_path / "drain-store")
        repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                    shards=2, url=url).close()

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", SERVE_WITH_NEW_WAIT_CLOSED, "serve", url,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True)
        try:
            ready = proc.stdout.readline()
            assert "drains" in ready, ready  # shutdown contract advertised
            yield proc, int(ready.split("127.0.0.1:")[1].split()[0])
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()

    @staticmethod
    def connect(port: int) -> TCPClient:
        deadline = time.monotonic() + 30
        while True:
            try:
                return TCPClient("127.0.0.1", port, timeout=10)
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def test_sigterm_drains_and_exits_zero(self, serve_cli):
        proc, port = serve_cli
        with self.connect(port) as tcp:
            assert tcp.lookup({"k": [4]})["found"] == [True]
            assert tcp.health()["ready"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

    def test_sigterm_exits_past_an_idle_connection(self, serve_cli):
        # A client that stays connected, idle, across the signal: the
        # shutdown closes its connection instead of waiting on it.
        proc, port = serve_cli
        with self.connect(port) as tcp:
            assert tcp.lookup({"k": [4]})["found"] == [True]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
