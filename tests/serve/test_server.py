"""Server behavior: parity, coalescing, stats, transports, facade, CLI."""

import gc
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.serve import AdmissionPolicy, BackgroundTCPServer, ServeStats

from .harness import assert_identical

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def keys_of(values) -> dict:
    return {"sku": np.asarray(values, dtype=np.int64)}


class TestSingleRequestParity:
    def test_hit_and_miss_mix(self, sharded_store):
        query = keys_of([0, 1, 3, 6, 9999, 3 * 899, 5])
        with repro.serving(sharded_store) as client:
            got = client.lookup(query)
        assert assert_identical(got, sharded_store.lookup(query),
                                "single") is None

    def test_one_shard_store_served_identically(self, mono_store):
        query = keys_of([0, 3, 4, 12, 10_000])
        with repro.serving(mono_store) as client:
            got = client.lookup(query)
        assert assert_identical(got, mono_store.lookup(query),
                                "mono") is None

    def test_lookup_one_convenience(self, sharded_store):
        with repro.serving(sharded_store) as client:
            row = client.lookup_one(sku=6)
            assert row is not None and row["price"] == (6 * 7) % 127
            assert client.lookup_one(sku=7) is None

    def test_empty_request_resolves_empty(self, sharded_store):
        with repro.serving(sharded_store) as client:
            got = client.lookup(keys_of([]))
        assert len(got) == 0
        assert set(got.values) == set(sharded_store.value_names)


class TestCoalescing:
    def test_concurrent_requests_share_batches(self, sharded_store):
        policy = AdmissionPolicy(max_batch_keys=100_000, max_delay_ms=25.0)
        with repro.serving(sharded_store, policy=policy) as client:
            queries = [keys_of([3 * i, 3 * i + 1, 12, 9999])
                       for i in range(32)]
            futures = [client.submit(q) for q in queries]
            results = [f.result(timeout=60) for f in futures]
            snap = client.stats.snapshot()
        for query, got in zip(queries, results):
            assert assert_identical(got, sharded_store.lookup(query),
                                    "coalesced") is None
        # 32 requests admitted inside one 25 ms window: far fewer store
        # calls than requests, and the shared keys deduped.
        assert snap["requests_coalesced"] == 32
        assert snap["batches_formed"] < 32
        assert snap["coalesce_ratio"] > 1.0
        assert snap["dedup_ratio"] > 1.0

    def test_duplicate_keys_within_one_request_survive(self, sharded_store):
        query = keys_of([6, 6, 6, 7, 7, 6])
        with repro.serving(sharded_store) as client:
            got = client.lookup(query)
        assert assert_identical(got, sharded_store.lookup(query),
                                "dupes") is None

    def test_per_tenant_stats_separate(self, sharded_store):
        with repro.serving(sharded_store) as client:
            client.lookup(keys_of([3, 6]), tenant="alpha")
            client.lookup(keys_of([9]), tenant="beta")
            client.lookup(keys_of([12]), tenant="alpha")
            snap = client.stats.snapshot()
        assert snap["tenants"]["alpha"]["requests"] == 2
        assert snap["tenants"]["alpha"]["keys"] == 3
        assert snap["tenants"]["beta"]["requests"] == 1
        assert snap["tenants"]["alpha"]["p50_seconds"] is not None
        assert snap["tenants"]["alpha"]["p99_seconds"] is not None

    def test_shared_stats_sink(self, sharded_store):
        sink = ServeStats()
        with repro.serving(sharded_store, stats=sink) as client:
            client.lookup(keys_of([3]))
        assert sink.batches_formed == 1
        assert sink.requests_coalesced == 1


class TestServingFacade:
    def test_serving_url_opens_read_only_and_owns_store(self, tmp_path):
        keys = np.arange(120, dtype=np.int64) * 2
        table = repro.ColumnTable({"k": keys, "v": keys % 17}, key=("k",))
        url = str(tmp_path / "store")
        repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                    shards=2, url=url).close()
        client = repro.serving(url)
        try:
            store = client.store
            with pytest.raises(PermissionError):
                store.insert({"k": np.array([999], dtype=np.int64),
                              "v": np.array([1], dtype=np.int64)})
            got = client.lookup({"k": np.array([4, 5], dtype=np.int64)})
            assert got.found.tolist() == [True, False]
        finally:
            client.close()

    def test_serving_rejects_other_targets(self):
        with pytest.raises(TypeError):
            repro.serving(42)

    def test_closed_client_refuses_new_lookups(self, sharded_store):
        client = repro.serving(sharded_store)
        client.close()
        client.close()  # idempotent
        with pytest.raises(RuntimeError):
            client.lookup(keys_of([3]))


class TestTCPTransport:
    def test_round_trip_and_stats(self, sharded_store):
        with BackgroundTCPServer(sharded_store) as server:
            with server.connect() as tcp:
                assert tcp.ping()
                response = tcp.lookup({"sku": [3, 4, 9999]}, tenant="net")
                want = sharded_store.lookup(keys_of([3, 4, 9999]))
                assert response["found"] == [bool(b) for b in want.found]
                for name in sharded_store.value_names:
                    assert response["values"][name] == \
                        np.asarray(want.values[name]).tolist()
                stats = tcp.stats()
                assert stats["requests_coalesced"] >= 1
                assert stats["tenants"]["net"]["requests"] == 1

    def test_concurrent_tcp_clients_coalesce(self, sharded_store):
        policy = AdmissionPolicy(max_batch_keys=100_000, max_delay_ms=25.0)
        with BackgroundTCPServer(sharded_store, policy=policy) as server:
            def one(i):
                with server.connect() as tcp:
                    return tcp.lookup({"sku": [3 * i, 12, 9999]})
            with ThreadPoolExecutor(16) as pool:
                responses = list(pool.map(one, range(16)))
            snap = server.stats.snapshot()
        for i, response in enumerate(responses):
            want = sharded_store.lookup(keys_of([3 * i, 12, 9999]))
            assert response["found"] == [bool(b) for b in want.found]
        assert snap["batches_formed"] < 16
        assert snap["coalesce_ratio"] > 1.0

    def test_bad_requests_fail_alone_connection_stays_up(self, sharded_store):
        with BackgroundTCPServer(sharded_store) as server:
            with server.connect() as tcp:
                # Malformed JSON: answered with an error line, not a drop.
                tcp._file.write(b"{not json\n")
                tcp._file.flush()
                assert "bad JSON" in json.loads(tcp._file.readline())["error"]
                # Unknown op: error carries the op name.
                assert "frobnicate" in tcp._call({"op": "frobnicate"})["error"]
                # Bad key dtype: rejected at admission, per-request.
                with pytest.raises(RuntimeError, match="TypeError"):
                    tcp.lookup({"sku": ["strings", "not", "ints"]})
                # The connection survived all three failures.
                assert tcp.ping()
                good = tcp.lookup({"sku": [3]})
                assert good["found"] == [True]

    @pytest.mark.parametrize("stop", ["close", "drain"])
    def test_stop_with_idle_connection_leaves_nothing_unraisable(
            self, sharded_store, monkeypatch, stop):
        # The handler of an idle connection is parked in readline();
        # stopping must end it before the loop closes, or collecting it
        # runs writer.close() on a closed loop.
        seen = []
        monkeypatch.setattr(sys, "unraisablehook", seen.append)
        server = BackgroundTCPServer(sharded_store)
        with server.connect() as tcp:
            assert tcp.ping()
            getattr(server, stop)()
            gc.collect()
        gc.collect()
        assert [repr(u.exc_value) for u in seen] == []


class TestServeCLI:
    def test_parser_wires_serve_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["serve", "mem://x", "--port", "7"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.port == 7
        assert args.max_batch_keys == 8192
        assert args.max_delay_ms == 2.0

    def test_cli_serves_a_saved_store_over_tcp(self, tmp_path):
        keys = np.arange(150, dtype=np.int64) * 2
        table = repro.ColumnTable({"k": keys, "v": keys % 23}, key=("k",))
        url = str(tmp_path / "cli-store")
        repro.build(table, repro.DeepMappingConfig(epochs=1, seed=0),
                    shards=2, url=url).close()

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", url, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True)
        try:
            ready = proc.stdout.readline()
            assert "serving" in ready and "127.0.0.1:" in ready, ready
            port = int(ready.split("127.0.0.1:")[1].split()[0])
            from repro.serve import TCPClient
            deadline = time.monotonic() + 30
            while True:
                try:
                    tcp = TCPClient("127.0.0.1", port, timeout=10)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            with tcp:
                response = tcp.lookup({"k": [4, 5]})
                assert response["found"] == [True, False]
                assert response["values"]["v"][0] == 4 % 23
        finally:
            proc.terminate()
            proc.wait(timeout=30)
            proc.stdout.close()
