"""Fault injection: one bad request must never sink its batchmates.

Containment layers under test:

1. malformed keys (bad dtype/shape) raise at admission — only that
   caller sees the error, the forming batch is untouched;
2. a merged store call that fails falls back to per-request isolation —
   requests that succeed alone still succeed, the poisoned one gets its
   exception, and ``stats.batch_fallbacks`` records the event;
3. a store that dies mid-flight fails every awaiting future with the
   store's error — promptly, not by hanging;
4. closing the server cancels queued requests (``CancelledError``) and
   drains in-flight batches;
5. a TCP request line that is valid JSON but not an object is answered
   with an error, and the connection stays usable.
"""

import json
import threading
import time
from asyncio import CancelledError
from concurrent.futures import CancelledError as FutureCancelledError
from concurrent.futures import Future

import numpy as np
import pytest

import repro
from repro.serve import (AdmissionPolicy, BackgroundTCPServer, Client,
                         QueueFullError)

from .harness import assert_identical


def keys_of(values) -> dict:
    return {"sku": np.asarray(values, dtype=np.int64)}


class ProxyStore:
    """Delegating store wrapper the fault tests subclass."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def key_names(self):
        return self._inner.key_names

    @property
    def value_names(self):
        return self._inner.value_names

    def lookup(self, keys):
        return self._inner.lookup(keys)

    def lookup_async(self, keys, deadline=None):
        return self._inner.lookup_async(keys, deadline=deadline)

    def close(self):
        pass


class PoisonKeyStore(ProxyStore):
    """Fails any lookup whose batch contains ``poison`` — including the
    merged batch, which is exactly the mid-batch failure scenario."""

    def __init__(self, inner, poison: int):
        super().__init__(inner)
        self.poison = poison

    def lookup_async(self, keys, deadline=None):
        if self.poison in np.asarray(keys["sku"]):
            raise ValueError(f"poison key {self.poison}")
        return self._inner.lookup_async(keys, deadline=deadline)


class DeadStore(ProxyStore):
    """Every lookup fails — the store was closed under the server."""

    def lookup_async(self, keys, deadline=None):
        raise RuntimeError("store is closed")


class BlockingStore(ProxyStore):
    """Holds every merged lookup until ``release`` is set (in-flight
    batches for the shutdown-drain test)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.release = threading.Event()
        self.entered = threading.Event()

    def lookup_async(self, keys, deadline=None):
        inner = self._inner

        def blocked():
            self.entered.set()
            assert self.release.wait(timeout=60)
            return inner.lookup(keys)

        future: Future = Future()

        def run():
            try:
                future.set_result(blocked())
            except BaseException as exc:
                future.set_exception(exc)

        threading.Thread(target=run, daemon=True).start()
        return future


class TestAdmissionContainment:
    def test_bad_dtype_fails_only_its_own_future(self, sharded_store):
        policy = AdmissionPolicy(max_batch_keys=100_000, max_delay_ms=25.0)
        with repro.serving(sharded_store, policy=policy) as client:
            good_queries = [keys_of([3 * i, 12]) for i in range(8)]
            good = [client.submit(q) for q in good_queries]
            bad = client.submit({"sku": np.array(["a", "b"])})
            with pytest.raises(TypeError, match="integer"):
                bad.result(timeout=30)
            for query, future in zip(good_queries, good):
                assert assert_identical(future.result(timeout=30),
                                        sharded_store.lookup(query),
                                        "good batchmate") is None
            assert client.stats.rejected == 1

    def test_wrong_shape_and_mismatched_lengths_rejected(self, sharded_store):
        with repro.serving(sharded_store) as client:
            with pytest.raises(TypeError, match="1-D"):
                client.lookup({"sku": np.zeros((2, 2), dtype=np.int64)})
            with pytest.raises(TypeError, match="integer"):
                client.lookup({"sku": np.array([1.5, 2.5])})

    def test_queue_full_rejects_newcomer_only(self, sharded_store):
        policy = AdmissionPolicy(max_batch_keys=100_000,
                                 max_delay_ms=500.0, max_queue_requests=2)
        with repro.serving(sharded_store, policy=policy) as client:
            first = client.submit(keys_of([3]))
            second = client.submit(keys_of([6]))
            # Wait until both are genuinely queued before overflowing.
            deadline = time.monotonic() + 5
            while client.stats.queue_depth < 2:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            third = client.submit(keys_of([9]))
            with pytest.raises(QueueFullError):
                third.result(timeout=30)
            assert first.result(timeout=30).found.tolist() == [True]
            assert second.result(timeout=30).found.tolist() == [True]


class TestWireContainment:
    @pytest.mark.parametrize("line", [b"[1, 2]\n", b"42\n", b"null\n"])
    def test_non_object_json_line_is_answered(self, sharded_store, line):
        # Regression: valid JSON that is not an object killed the
        # respond task (AttributeError on ``.get``) — no reply at all,
        # and the client sat out its whole socket timeout.
        with BackgroundTCPServer(sharded_store) as server:
            with server.connect(timeout=10) as tcp:
                tcp._file.write(line)
                tcp._file.flush()
                reply = json.loads(tcp._file.readline())
                assert reply["id"] is None
                assert "JSON object" in reply["error"]
                # The next line on the same connection is still answered.
                assert tcp.ping()
                assert tcp.lookup({"sku": [3]})["found"] == [True]


class TestMidBatchContainment:
    def test_poisoned_batch_falls_back_per_request(self, sharded_store):
        store = PoisonKeyStore(sharded_store, poison=999_999)
        policy = AdmissionPolicy(max_batch_keys=100_000, max_delay_ms=25.0)
        with Client(store, policy=policy) as client:
            good_queries = [keys_of([3 * i, 6]) for i in range(6)]
            good = [client.submit(q) for q in good_queries]
            poisoned = client.submit(keys_of([3, 999_999]))
            with pytest.raises(ValueError, match="poison key"):
                poisoned.result(timeout=30)
            for query, future in zip(good_queries, good):
                assert assert_identical(future.result(timeout=30),
                                        sharded_store.lookup(query),
                                        "survivor") is None
            snap = client.stats.snapshot()
        assert snap["batch_fallbacks"] >= 1
        assert snap["tenants"]["default"]["errors"] == 1

    def test_dead_store_fails_fast_not_hangs(self, sharded_store):
        with Client(DeadStore(sharded_store)) as client:
            futures = [client.submit(keys_of([3 * i])) for i in range(4)]
            for future in futures:
                with pytest.raises(RuntimeError, match="store is closed"):
                    future.result(timeout=30)


class TestShutdown:
    def test_close_cancels_queued_requests_cleanly(self, sharded_store):
        # Delay so long the batch can only leave the queue via close().
        policy = AdmissionPolicy(max_batch_keys=100_000,
                                 max_delay_ms=60_000.0)
        client = repro.serving(sharded_store, policy=policy)
        queued = client.submit(keys_of([3]))
        deadline = time.monotonic() + 5
        while client.stats.queue_depth < 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        client.close()
        # Depending on the Python build the two CancelledError classes
        # may or may not be unified; both are "clean cancellation".
        with pytest.raises((CancelledError, FutureCancelledError)):
            queued.result(timeout=30)

    def test_close_drains_in_flight_batches(self, sharded_store):
        store = BlockingStore(sharded_store)
        policy = AdmissionPolicy(max_batch_keys=1)  # flush immediately
        client = Client(store, policy=policy)
        in_flight = client.submit(keys_of([3]))
        assert store.entered.wait(timeout=30)

        closer = threading.Thread(target=client.close, daemon=True)
        closer.start()
        time.sleep(0.05)          # close() is now waiting on the batch
        store.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        # The in-flight request completed normally despite the shutdown.
        assert in_flight.result(timeout=30).found.tolist() == [True]
        with pytest.raises(RuntimeError, match="closed"):
            client.lookup(keys_of([6]))
