"""A read's deadline reaches its fetches.

A read binds its deadline for the duration of its plan, so a remote
store's range GET uses what is left of it as its socket timeout, the
retry loop stops at it, and a read waiting for another thread's
hydration of the same shard waits at most that long.  A stalled GET
therefore cannot hold a deadline-armed read past its budget, and the
read leaves no thread of its own blocked behind it.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.data import synthetic
from repro.resilience import Deadline, DeadlineExceeded, PartialResult
from repro.shard import DeepMapping, ShardingConfig
from repro.storage import LocalDirBackend
from repro.storage.blob_cache import payload_cache
from repro.testing import serve_backend

from ..core.conftest import fast_config

#: Scheduling slack a deadline-armed read may overrun its budget by.
SLACK_S = 0.05


@pytest.fixture
def served(tmp_path):
    """A 4-shard partial-mode store, saved and served over HTTP."""
    table = synthetic.single_column(800, "high", seed=2)
    store = DeepMapping.fit(table, fast_config(epochs=2),
                            ShardingConfig(n_shards=4,
                                           on_shard_error="partial"))
    path = str(tmp_path / "store")
    store.save(path)
    payload_cache().clear()
    with serve_backend(LocalDirBackend(path, create=False)) as server:
        yield store, table, server
    payload_cache().clear()
    store.close()


def shard_keys(store, table, ordinal):
    keys = table.column("key")
    return {"key": keys[store.router.route({"key": keys}) == ordinal]}


def test_a_stalled_get_cannot_hold_a_read_past_its_deadline(served):
    store, table, server = served
    remote = repro.open(server.url)
    keys = shard_keys(store, table, 0)
    before = set(threading.enumerate())
    server.stall_next(1, 2.0)
    started = time.monotonic()
    got = remote.lookup(keys, deadline=Deadline(0.2))
    elapsed = time.monotonic() - started
    assert elapsed < 0.2 + SLACK_S
    assert isinstance(got, PartialResult)
    assert isinstance(got.shard_errors[0], DeadlineExceeded)
    assert not got.found.any()
    # The only threads still around are the server's (daemon) handlers:
    # the read's own socket was closed at its timeout.
    assert all(thread.daemon for thread in set(threading.enumerate())
               - before)
    # The stall was one GET: the next read hydrates and answers.
    again = remote.lookup(keys)
    np.testing.assert_array_equal(again.found, store.lookup(keys).found)
    remote.close()


def test_a_spent_deadline_sends_no_request(served):
    store, table, server = served
    remote = repro.open(server.url)
    server.reset_requests()
    deadline = Deadline(0.05)
    time.sleep(0.06)
    with pytest.raises(DeadlineExceeded):
        remote.lookup(shard_keys(store, table, 2), deadline=deadline)
    assert server.request_count() == 0
    remote.close()


def test_a_wait_for_another_reads_hydration_is_bounded(served):
    store, table, server = served
    remote = repro.open(server.url)
    keys = shard_keys(store, table, 1)
    server.stall_next(1, 1.0)
    slow = threading.Thread(target=remote.lookup, args=(keys,))
    slow.start()   # no deadline: hydrates shard 1 through the stall
    time.sleep(0.2)
    started = time.monotonic()
    got = remote.lookup(keys, deadline=Deadline(0.2))
    elapsed = time.monotonic() - started
    slow.join(10.0)
    assert elapsed < 0.2 + SLACK_S
    assert isinstance(got, PartialResult)
    assert isinstance(got.shard_errors[1], DeadlineExceeded)
    assert remote.stats.counters.get("hydration_waits", 0) >= 1
    remote.close()
