"""Overload acceptance: backpressure × deadlines, typed wire errors,
and an end-to-end flood scenario.

The scaled-down twin of ``benchmarks/bench_serving.py --overload`` (the
numeric p99/goodput gates live there): one tenant floods, light tenants
keep getting served, every admitted request settles — shed requests
fail *typed* with a retry hint, and a drain loses nothing.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.resilience import DeadlineExceeded
from repro.serve import (AdmissionPolicy, BackgroundTCPServer, Client,
                         LoadShedder, LookupServer, QueueFullError,
                         ServerOverloadedError, SheddingPolicy)
from repro.testing import ChaosStore

from .harness import assert_identical


def keys_of(values) -> dict:
    return {"sku": np.asarray(values, dtype=np.int64)}


class TestBackpressureMeetsDeadlines:
    def test_expired_waiter_frees_its_queue_slot(self, mono_store):
        # Satellite contract: a queued waiter whose deadline has passed
        # must not hold its slot against a live admission — the full
        # queue evicts it (failing it alone, typed) and admits the
        # newcomer.  Cancelling the server's timer simulates the loop
        # being too busy to flush before the waiter died.
        async def scenario():
            server = LookupServer(
                mono_store,
                AdmissionPolicy(max_queue_requests=1, max_batch_keys=10_000,
                                max_delay_ms=10_000.0))
            doomed = asyncio.ensure_future(
                server.lookup(keys_of([3]), tenant="dead", deadline_ms=5.0))
            await asyncio.sleep(0)  # admit; timer armed at half-budget
            assert len(server._batcher) == 1
            server._timer.cancel()
            server._timer = None
            await asyncio.sleep(0.01)  # the waiter's 5 ms budget lapses
            got = await server.lookup(keys_of([6]), tenant="live")
            assert got.found.tolist() == [True]
            with pytest.raises(DeadlineExceeded):
                await doomed
            snap = server.stats.snapshot()
            assert snap["deadline_expired"] == 1
            assert snap["tenants"]["dead"]["errors"] == 1
            assert snap["tenants"]["live"]["errors"] == 0
            assert snap["tenants"]["live"]["requests"] == 1
        asyncio.run(scenario())

    def test_queue_full_rejects_land_on_the_rejecting_tenant_only(
            self, mono_store):
        # A live waiter holds the only slot: the newcomer is rejected,
        # and the reject is attributed to the *newcomer's* tenant — the
        # queued tenant's stats stay clean.
        async def scenario():
            server = LookupServer(
                mono_store,
                AdmissionPolicy(max_queue_requests=1, max_batch_keys=10_000,
                                max_delay_ms=10_000.0))
            waiting = asyncio.ensure_future(
                server.lookup(keys_of([3]), tenant="patient"))
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError) as info:
                await server.lookup(keys_of([6]), tenant="pushy")
            assert not isinstance(info.value, ServerOverloadedError)
            snap = server.stats.snapshot()
            assert snap["rejected"] == 1
            assert snap["tenants"]["pushy"]["errors"] == 1
            assert snap["tenants"]["pushy"]["requests"] == 0
            assert snap["tenants"]["patient"]["errors"] == 0
            server._flush("drain")
            assert (await waiting).found.tolist() == [True]
        asyncio.run(scenario())


class TestTypedWireErrors:
    def test_shed_over_tcp_carries_retry_after(self, mono_store):
        chaos = ChaosStore(mono_store, hang_s=30.0)
        shedder = LoadShedder(SheddingPolicy(target_delay_ms=5.0,
                                             hard_delay_ms=10.0,
                                             min_observations=1))
        shedder.observe_batch(1000, 1.0)
        server = BackgroundTCPServer(
            chaos, AdmissionPolicy(max_batch_keys=4, max_delay_ms=1.0),
            shedder=shedder)
        try:
            stuck = {}

            def wedge():
                with server.connect(timeout=60) as tcp:
                    stuck["response"] = tcp.lookup({"sku": [0, 3, 6, 9]})

            worker = threading.Thread(target=wedge)
            worker.start()
            for _ in range(400):
                if server.server.health["inflight_batches"]:
                    break
                time.sleep(0.005)
            with server.connect() as tcp:
                with pytest.raises(ServerOverloadedError) as info:
                    tcp.lookup({"sku": list(range(0, 60, 3))})
                # The hint crossed the wire and came back in seconds.
                assert info.value.retry_after_s is not None
                assert info.value.retry_after_s > 0
                # Typed errors stay catchable as the RuntimeError older
                # clients expect.
                assert isinstance(info.value, RuntimeError)
                assert tcp.health()["shed_level"] in ("shedding", "critical")
            chaos.release()
            worker.join(timeout=30)
            assert stuck["response"]["found"] == [True] * 4
        finally:
            chaos.release()
            server.close()

    def test_queue_full_over_tcp_is_typed(self, mono_store):
        chaos = ChaosStore(mono_store, hang_s=30.0)
        server = BackgroundTCPServer(
            chaos, AdmissionPolicy(max_queue_requests=1, max_batch_keys=4,
                                   max_delay_ms=10_000.0))
        try:
            holder = {}

            def occupy():
                with server.connect(timeout=60) as tcp:
                    holder["response"] = tcp.lookup({"sku": [3]})

            worker = threading.Thread(target=occupy)
            worker.start()
            for _ in range(400):
                if server.server.health["queued_requests"]:
                    break
                time.sleep(0.005)
            with server.connect() as tcp:
                with pytest.raises(ServerOverloadedError):
                    tcp.lookup({"sku": [6]})
            chaos.release()
            worker.join(timeout=30)
            assert holder["response"]["found"] == [True]
        finally:
            chaos.release()
            server.close()


class TestFloodScenario:
    def test_flood_is_contained_and_nothing_is_lost(self, mono_store):
        # One tenant floods 2x what the (slowed) store can absorb; four
        # light tenants trickle.  Light requests must all succeed (with
        # bounded typed retries), flood requests must each settle —
        # served or shed, never hung — and the closing drain must lose
        # zero admitted work.
        chaos = ChaosStore(mono_store, latency_s=0.02)
        shedder = LoadShedder(SheddingPolicy(target_delay_ms=10.0,
                                             hard_delay_ms=200.0,
                                             min_observations=1))
        client = Client(
            chaos,
            AdmissionPolicy(max_batch_keys=64, max_delay_ms=5.0,
                            tenant_quota_keys=256),
            shedder=shedder)
        flood_futures = []
        light_failures = []
        light_parity = []
        try:
            def flood():
                rng = np.random.default_rng(11)
                for _ in range(30):
                    request = keys_of(rng.integers(0, 900, size=32) * 3)
                    flood_futures.append(
                        client.submit(request, tenant="flood"))
                    time.sleep(0.002)

            def light(tenant_index):
                rng = np.random.default_rng(100 + tenant_index)
                tenant = f"light-{tenant_index}"
                for _ in range(5):
                    request = keys_of(rng.integers(0, 900, size=4) * 3)
                    want = mono_store.lookup(request)
                    for _attempt in range(50):
                        try:
                            got = client.lookup(request, tenant=tenant)
                            break
                        except ServerOverloadedError as exc:
                            time.sleep(exc.retry_after_s or 0.005)
                    else:
                        light_failures.append(tenant)
                        return
                    mismatch = assert_identical(got, want, tenant)
                    if mismatch:
                        light_parity.append(mismatch)
                    time.sleep(0.005)

            threads = [threading.Thread(target=flood)] + \
                [threading.Thread(target=light, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert light_failures == []
            assert light_parity == []
            # Every flood submission settles: a result or a typed shed.
            served = shed = 0
            for future in flood_futures:
                try:
                    result = future.result(timeout=60)
                    assert result.found.size == 32
                    served += 1
                except QueueFullError:
                    shed += 1
            assert served + shed == 30
            assert served >= 1  # the flood was degraded, not blackholed
            report = client.drain(timeout=120)
            assert "awaited_batches" in report
            snap = client.stats.snapshot()
            assert snap["tenants"]["flood"]["requests"] == served
        finally:
            chaos.release()
            try:
                client.close()
            except RuntimeError:
                pass
