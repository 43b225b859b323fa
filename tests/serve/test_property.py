"""Hypothesis property: coalescing is invisible to every caller.

For ANY partition of a key batch across concurrent requests — with
overlapping keys, duplicate keys, in-domain misses, and out-of-domain
misses — each request's response through the coalescing server is
bit-identical to one direct ``store.lookup`` of its own keys.  Checked
under both the serial and the threads executor strategy, over both the
sharded and the monolithic store.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import AdmissionPolicy, Client

from .conftest import N_ROWS
from .harness import assert_identical

#: Keys span live values (multiples of 3), in-domain gaps, and a margin
#: past the domain, so every miss path is reachable.
KEY_DOMAIN = st.integers(min_value=0, max_value=N_ROWS * 3 + 500)

#: 1..6 concurrent requests of 0..24 keys each; hypothesis shrinks over
#: the whole partition shape, overlaps included.
PARTITIONS = st.lists(
    st.lists(KEY_DOMAIN, min_size=0, max_size=24),
    min_size=1, max_size=6)

RELAXED = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def _serve_and_compare(store, partition, executor_name):
    """Submit every request concurrently; compare each to the oracle."""
    queries = [{"sku": np.asarray(chunk, dtype=np.int64)}
               for chunk in partition]
    expected = [store.lookup(q) for q in queries]

    previous = store.executor
    store.set_executor(executor_name)
    try:
        policy = AdmissionPolicy(max_batch_keys=100_000, max_delay_ms=10.0)
        with Client(store, policy=policy) as client:
            with ThreadPoolExecutor(max_workers=len(queries)) as pool:
                futures = [pool.submit(client.lookup, q) for q in queries]
                results = [f.result(timeout=60) for f in futures]
    finally:
        store.set_executor(previous)

    for index, (got, want) in enumerate(zip(results, expected)):
        mismatch = assert_identical(got, want, f"request {index}")
        assert mismatch is None, mismatch


class TestPartitionParity:
    @RELAXED
    @given(partition=PARTITIONS)
    def test_sharded_serial_executor(self, sharded_store, partition):
        _serve_and_compare(sharded_store, partition, "serial")

    @RELAXED
    @given(partition=PARTITIONS)
    def test_sharded_threads_executor(self, sharded_store, partition):
        _serve_and_compare(sharded_store, partition, "threads")

    @RELAXED
    @given(partition=PARTITIONS)
    def test_monolithic_threads_executor(self, mono_store, partition):
        _serve_and_compare(mono_store, partition, "threads")

    @RELAXED
    @given(partition=PARTITIONS)
    def test_dedup_math_alone(self, partition):
        """merge/scatter round-trips any partition without a store:
        scattering the identity over merged uniques must reproduce every
        request's own keys."""
        from repro.core.plan import LookupResult
        from repro.serve.batcher import (PendingRequest, merge_requests,
                                         normalize_request_keys,
                                         scatter_result)

        requests = [
            PendingRequest(
                normalize_request_keys({"sku": np.asarray(chunk,
                                                          dtype=np.int64)},
                                       ("sku",)),
                "t", future=None, admitted_at=0.0)
            for chunk in partition]
        unique_cols, inverse, slices = merge_requests(("sku",), requests)
        uniques = unique_cols["sku"]
        # Uniqueness and coverage.
        assert np.unique(uniques).size == uniques.size
        fake = LookupResult(found=np.ones(uniques.size, dtype=bool),
                            values={"echo": uniques.copy()})
        for request, (lo, hi) in zip(requests, slices):
            sliced = scatter_result(fake, inverse, lo, hi)
            np.testing.assert_array_equal(sliced.values["echo"],
                                          request.key_cols["sku"])
