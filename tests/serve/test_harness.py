"""The acceptance harness: 64 concurrent clients, bit-identical parity.

ISSUE 6's headline check: 64 concurrent clients with seeded mixed
hit/miss key sets over a 4-shard store must receive exactly what direct
``lookup`` returns, with a measured coalesce ratio > 1.  A smaller
smoke-sized variant runs the same machinery for quick local loops, and
one variant drives the TCP transport instead of the in-process client.
"""

import numpy as np

import repro
from repro.serve import AdmissionPolicy, BackgroundTCPServer

from .harness import build_scripts, run_clients


class TestConcurrencyHarness:
    def test_16_clients_quick(self, sharded_store, live_keys):
        scripts = build_scripts("sku", live_keys, n_clients=16,
                                requests_per_client=2, keys_per_request=12,
                                seed=7)
        policy = AdmissionPolicy(max_batch_keys=4096, max_delay_ms=10.0)
        with repro.serving(sharded_store, policy=policy) as client:
            report = run_clients(client, sharded_store, scripts)
        report.raise_on_mismatch()
        assert report.stats["requests_coalesced"] == report.n_requests

    def test_64_clients_acceptance(self, sharded_store, live_keys):
        """The ISSUE acceptance bar, verbatim."""
        scripts = build_scripts("sku", live_keys, n_clients=64,
                                requests_per_client=3, keys_per_request=16,
                                seed=20240806)
        policy = AdmissionPolicy(max_batch_keys=16_384, max_delay_ms=20.0)
        with repro.serving(sharded_store, policy=policy) as client:
            report = run_clients(client, sharded_store, scripts)
        report.raise_on_mismatch()
        assert report.n_clients == 64
        assert report.stats["requests_coalesced"] == 64 * 3
        # Coalescing must actually happen, not just parity by accident.
        assert report.stats["coalesce_ratio"] > 1.0
        assert report.stats["batches_formed"] < report.n_requests
        # The shared hot-key pool guarantees cross-request dedup work.
        assert report.stats["dedup_ratio"] > 1.0
        assert report.stats["max_queue_depth"] > 1
        # Every tenant bucket (4 tenants round-robin) saw traffic and
        # has latency percentiles.
        tenants = report.stats["tenants"]
        assert len(tenants) == 4
        for record in tenants.values():
            assert record["requests"] == 16 * 3
            assert record["p50_seconds"] is not None
            assert record["p99_seconds"] >= record["p50_seconds"]

    def test_64_clients_serial_executor(self, sharded_store, live_keys):
        """Same bar under the serial strategy: coalescing must not
        depend on the store's own fan-out concurrency."""
        scripts = build_scripts("sku", live_keys, n_clients=64,
                                requests_per_client=1, keys_per_request=16,
                                seed=99)
        previous = sharded_store.executor
        sharded_store.set_executor("serial")
        try:
            policy = AdmissionPolicy(max_batch_keys=16_384,
                                     max_delay_ms=20.0)
            with repro.serving(sharded_store, policy=policy) as client:
                report = run_clients(client, sharded_store, scripts)
        finally:
            sharded_store.set_executor(previous)
        report.raise_on_mismatch()
        assert report.stats["coalesce_ratio"] > 1.0

    def test_tcp_transport_parity(self, sharded_store, live_keys):
        """The harness through real sockets: 12 TCP clients."""
        scripts = build_scripts("sku", live_keys, n_clients=12,
                                requests_per_client=2, keys_per_request=8,
                                seed=3)
        policy = AdmissionPolicy(max_batch_keys=4096, max_delay_ms=10.0)
        # JSON carries values as plain lists; decode back into the
        # store's dtypes so bit-identity is comparable.
        dtypes = {name: arr.dtype for name, arr in sharded_store.lookup(
            {"sku": np.empty(0, dtype=np.int64)}).values.items()}
        with BackgroundTCPServer(sharded_store, policy=policy) as server:

            class TCPAdapter:
                """Quacks like the in-process client for run_clients."""

                stats = server.server.stats

                def lookup(self, keys, tenant="default"):
                    from repro.core.plan import LookupResult
                    with server.connect() as tcp:
                        response = tcp.lookup(keys, tenant=tenant)
                    return LookupResult(
                        found=np.asarray(response["found"], dtype=bool),
                        values={name: np.asarray(vals, dtype=dtypes[name])
                                for name, vals in
                                response["values"].items()})

            report = run_clients(TCPAdapter(), sharded_store, scripts)
        report.raise_on_mismatch()
        assert report.stats["requests_coalesced"] == report.n_requests
