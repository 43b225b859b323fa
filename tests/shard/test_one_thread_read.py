"""One thread per read: a deadline or a hedger changes no thread hop.

A read runs its plan on the calling thread whether or not it carries a
deadline and whether or not the store hedges (hedging acts at a remote
store's range GET, not at the probe): no job reaches the executor, and
every ``T_aux`` probe runs on the caller's thread.
"""

import threading

import numpy as np
import pytest

from repro.resilience import Deadline
from repro.shard import DeepMapping, ShardingConfig
from repro.store import ThreadPoolStrategy
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


class CountingStrategy(ThreadPoolStrategy):
    """The default thread pool, counting what is handed to it."""

    def __init__(self):
        super().__init__()
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class ThreadRecorder:
    """A shard that notes the thread each probe runs on."""

    def __init__(self, inner, seen):
        self._inner, self._seen = inner, seen

    def probe(self, flat, hit, labels):
        self._seen.add(threading.get_ident())
        self._inner.probe(flat, hit, labels)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("mode", ["deadline", "hedged"])
@pytest.mark.parametrize("n_shards", [1, 4])
def test_an_armed_read_makes_no_executor_submission(small_table, mode,
                                                    n_shards):
    store = DeepMapping.fit(
        small_table, fast_config(epochs=3),
        ShardingConfig(n_shards=n_shards, hedged_reads=mode == "hedged"))
    counting = CountingStrategy()
    store.set_executor(counting)
    seen = set()
    shards = store.shards
    for ordinal, shard in enumerate(shards):
        shards[ordinal] = ThreadRecorder(shard, seen)
    keys = {"key": np.random.default_rng(3).permutation(
        small_table.column("key"))[:300]}
    deadline = Deadline(30.0) if mode == "deadline" else None
    try:
        got = store.lookup(keys, deadline=deadline)
    finally:
        counting.close()
    assert counting.submitted == 0
    assert seen == {threading.get_ident()}
    want = barrier_lookup(store, keys)
    np.testing.assert_array_equal(got.found, want.found)
    for name in store.value_names:
        np.testing.assert_array_equal(got.values[name], want.values[name])
