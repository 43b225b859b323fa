"""Chaos acceptance: the serving tier under injected faults.

The resilience layer's end-to-end bar, driven through the same 64-client
seeded harness as the healthy-path acceptance suite:

1. deadlines hold — against a wedged store, no request outlives its
   ``deadline_ms`` budget by more than one batch window (plus scheduling
   slack), and every one fails with a typed :class:`DeadlineExceeded`;
2. partial results hold — with one shard broken, responses that reach
   clients are bit-identical to the healthy oracle on every healthy-shard
   position and mark broken-shard keys as failed/not-found;
3. errors are contained — probabilistic store errors fail only the
   requests they hit (every completed response stays bit-identical), and
   the server keeps serving once the chaos stops.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.resilience import DeadlineExceeded, PartialResult
from repro.serve import AdmissionPolicy, BackgroundTCPServer, TCPClient
from repro.shard import DeepMapping, ShardingConfig
from repro.testing import ChaosStore, break_shard

from .conftest import _config, _table
from .harness import assert_identical, build_scripts, run_clients

#: One batch window: the max_delay_ms used throughout this module.
WINDOW_MS = 20.0
#: Scheduling slack for loaded CI machines — generous, but still two
#: orders of magnitude under the injected hang.
SLACK_S = 1.0


@pytest.fixture(scope="module")
def partial_store():
    """A 4-shard store in ``on_shard_error="partial"`` mode."""
    store = DeepMapping.fit(
        _table(), _config(),
        ShardingConfig(n_shards=4, on_shard_error="partial"))
    yield store
    store.close()


class DeadlineClient:
    """Harness adapter: every lookup carries the same deadline budget."""

    def __init__(self, client, deadline_ms):
        self._client = client
        self._deadline_ms = deadline_ms

    def lookup(self, keys, tenant="default"):
        return self._client.lookup(keys, tenant=tenant,
                                   deadline_ms=self._deadline_ms)

    @property
    def stats(self):
        return self._client.stats


def drive_concurrently(n_clients, make_request):
    """Run ``make_request(client_index)`` on ``n_clients`` barrier-released
    threads; returns (outcomes, elapsed_seconds) index-aligned lists where
    each outcome is the return value or the raised exception."""
    outcomes = [None] * n_clients
    elapsed = [None] * n_clients
    barrier = threading.Barrier(n_clients)

    def drive(index):
        barrier.wait()
        start = time.monotonic()
        try:
            outcomes[index] = make_request(index)
        except BaseException as exc:  # noqa: BLE001 — recorded, asserted on
            outcomes[index] = exc
        elapsed[index] = time.monotonic() - start

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), \
        "chaos clients wedged"
    return outcomes, elapsed


class TestDeadlinesUnderChaos:
    def test_64_clients_healthy_with_deadlines_armed(self, sharded_store,
                                                     live_keys):
        """Deadline plumbing must be invisible when nothing goes wrong:
        full bit-identical parity, zero expirations."""
        scripts = build_scripts("sku", live_keys, n_clients=64,
                                requests_per_client=2, keys_per_request=16,
                                seed=20260808)
        policy = AdmissionPolicy(max_batch_keys=16_384,
                                 max_delay_ms=WINDOW_MS)
        with repro.serving(sharded_store, policy=policy) as client:
            report = run_clients(DeadlineClient(client, 30_000.0),
                                 sharded_store, scripts)
        report.raise_on_mismatch()
        assert report.stats["deadline_expired"] == 0
        assert report.stats["requests_coalesced"] == report.n_requests

    def test_no_request_outlives_deadline_against_hung_store(
            self, sharded_store, live_keys):
        """64 clients against a wedged store: every request fails with
        DeadlineExceeded inside budget + one batch window + slack."""
        deadline_ms = 250.0
        chaos = ChaosStore(sharded_store, hang_s=30.0)
        scripts = build_scripts("sku", live_keys, n_clients=64,
                                requests_per_client=1, keys_per_request=8,
                                seed=5)
        policy = AdmissionPolicy(max_batch_keys=16_384,
                                 max_delay_ms=WINDOW_MS)
        try:
            with repro.serving(chaos, policy=policy) as client:
                outcomes, elapsed = drive_concurrently(
                    64, lambda i: client.lookup(
                        scripts[i].requests[0], tenant=scripts[i].tenant,
                        deadline_ms=deadline_ms))
                snapshot = client.stats.snapshot()
        finally:
            chaos.release()  # free the wedged worker threads
        bound = deadline_ms / 1000.0 + WINDOW_MS / 1000.0 + SLACK_S
        for index, (outcome, took) in enumerate(zip(outcomes, elapsed)):
            assert isinstance(outcome, DeadlineExceeded), \
                f"client {index}: expected DeadlineExceeded, got {outcome!r}"
            assert isinstance(outcome, TimeoutError)  # stdlib catchability
            assert took <= bound, \
                f"client {index} outlived its deadline: {took:.3f}s > " \
                f"{bound:.3f}s"
        assert snapshot["deadline_expired"] == 64
        assert chaos.injected_hangs > 0

    def test_expired_deadline_rejected_at_admission(self, sharded_store):
        policy = AdmissionPolicy(max_delay_ms=WINDOW_MS)
        with repro.serving(sharded_store, policy=policy) as client:
            with pytest.raises(ValueError):
                client.lookup({"sku": np.array([0], dtype=np.int64)},
                              deadline_ms=0.0)
            with pytest.raises(ValueError):
                client.lookup({"sku": np.array([0], dtype=np.int64)},
                              deadline_ms=-5.0)


class TestPartialResultsThroughServing:
    def test_broken_shard_partial_parity_through_client(
            self, partial_store, live_keys):
        """16 concurrent clients, one broken shard: every response is a
        PartialResult, bit-identical to the healthy oracle on healthy
        positions, found=False on every failed position."""
        scripts = build_scripts("sku", live_keys, n_clients=16,
                                requests_per_client=1, keys_per_request=24,
                                seed=77)
        oracle = [partial_store.lookup(s.requests[0]) for s in scripts]
        policy = AdmissionPolicy(max_batch_keys=16_384,
                                 max_delay_ms=WINDOW_MS)
        restore = break_shard(partial_store, 1)
        try:
            with repro.serving(partial_store, policy=policy) as client:
                outcomes, _ = drive_concurrently(
                    16, lambda i: client.lookup(scripts[i].requests[0],
                                                tenant=scripts[i].tenant))
        finally:
            restore()
        saw_failed = 0
        for index, got in enumerate(outcomes):
            assert not isinstance(got, BaseException), repr(got)
            want = oracle[index]
            failed = getattr(got, "failed_mask", None)
            if failed is None:
                # every key of this request happened to route to healthy
                # shards — plain result, full parity
                assert assert_identical(got, want,
                                        f"client {index}") is None
                continue
            assert isinstance(got, PartialResult)
            assert 1 in got.shard_errors
            saw_failed += 1
            healthy = ~failed
            assert not got.found[failed].any()
            assert np.array_equal(got.found[healthy], want.found[healthy])
            for name in want.values:
                assert np.array_equal(got.values[name][healthy],
                                      want.values[name][healthy])
        # The seeded mix guarantees shard 1 traffic somewhere.
        assert saw_failed > 0

    def test_partial_store_heals_after_restore(self, partial_store,
                                               live_keys):
        scripts = build_scripts("sku", live_keys, n_clients=8,
                                requests_per_client=2, keys_per_request=12,
                                seed=31)
        policy = AdmissionPolicy(max_delay_ms=WINDOW_MS)
        with repro.serving(partial_store, policy=policy) as client:
            report = run_clients(client, partial_store, scripts)
        report.raise_on_mismatch()


class TestErrorContainment:
    def test_merged_batch_failure_falls_back_to_isolation(
            self, sharded_store, live_keys):
        """One scripted failure on the merged call: the server retries
        requests individually and every client still gets bit-identical
        results — the chaos is absorbed, not surfaced."""
        chaos = ChaosStore(sharded_store, latency_s=0.001, seed=13)
        chaos.fail_next(1)
        scripts = build_scripts("sku", live_keys, n_clients=32,
                                requests_per_client=1, keys_per_request=12,
                                seed=41)
        oracle = [sharded_store.lookup(s.requests[0]) for s in scripts]
        policy = AdmissionPolicy(max_batch_keys=16_384,
                                 max_delay_ms=WINDOW_MS)
        with repro.serving(chaos, policy=policy) as client:
            outcomes, _ = drive_concurrently(
                32, lambda i: client.lookup(scripts[i].requests[0],
                                            tenant=scripts[i].tenant))
            snapshot = client.stats.snapshot()
        assert chaos.injected_errors >= 1
        failures = [o for o in outcomes if isinstance(o, BaseException)]
        # The scripted failure hit a *merged* call; per-request fallback
        # re-ran everyone, so at most the one request that absorbed the
        # retry-side failure may error — with one scripted fault, none.
        assert not failures, f"contained failure leaked: {failures[0]!r}"
        for index, got in enumerate(outcomes):
            assert assert_identical(got, oracle[index],
                                    f"client {index}") is None
        assert snapshot["batch_fallbacks"] >= 1

    def test_deadline_propagates_over_tcp(self, sharded_store):
        """A wire-level ``deadline_ms`` bounds a hung store: the client
        gets the typed error name back, inside the same budget."""
        deadline_ms = 250.0
        chaos = ChaosStore(sharded_store, hang_s=30.0)
        policy = AdmissionPolicy(max_delay_ms=WINDOW_MS)
        try:
            with BackgroundTCPServer(chaos, policy=policy) as server:
                with server.connect(timeout=10) as tcp:
                    start = time.monotonic()
                    with pytest.raises(RuntimeError,
                                       match="DeadlineExceeded"):
                        tcp.lookup({"sku": [0, 3, 6]},
                                   deadline_ms=deadline_ms)
                    took = time.monotonic() - start
        finally:
            chaos.release()
        assert took <= deadline_ms / 1000.0 + WINDOW_MS / 1000.0 + SLACK_S

    def test_tcp_connect_retries_ride_out_slow_listener(self):
        """The client's bounded connect retry absorbs a listener that
        is bound but not yet accepting."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now

        listener = socket.socket()

        def listen_late():
            time.sleep(0.05)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)

        thread = threading.Thread(target=listen_late, daemon=True)
        thread.start()
        try:
            client = TCPClient("127.0.0.1", port, timeout=5,
                               connect_attempts=8)
            client.close()
        finally:
            thread.join()
            listener.close()

    def test_tcp_connect_gives_up_after_bounded_attempts(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        start = time.monotonic()
        with pytest.raises(OSError):
            TCPClient("127.0.0.1", port, timeout=1, connect_attempts=2)
        assert time.monotonic() - start < 5.0  # bounded, not hung

    def test_server_keeps_serving_after_chaos_stops(self, sharded_store):
        chaos = ChaosStore(sharded_store, error_rate=1.0, seed=3)
        keys = {"sku": np.array([0, 3, 6], dtype=np.int64)}
        policy = AdmissionPolicy(max_delay_ms=WINDOW_MS)
        with repro.serving(chaos, policy=policy) as client:
            with pytest.raises(RuntimeError, match="injected store error"):
                client.lookup(keys)
            chaos.error_rate = 0.0  # the dependency recovers
            got = client.lookup(keys)
        assert assert_identical(got, sharded_store.lookup(keys),
                                "recovery") is None
