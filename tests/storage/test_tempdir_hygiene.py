"""No store leaves a temporary directory behind.

``DiskStore()`` used to ``mkdtemp`` in its constructor — one directory
per auxiliary table, i.e. per shard per open, per retrain, per split or
merge half — and nothing ever removed them.  Now an opened store never
needs one (its partitions are attached from the payload), a built one
makes it on first write, and it goes when its table is retired
(``drop_storage``: retrain, split, merge, rebuild), collected, or at
interpreter exit.  ``close()`` still leaves a store usable, so it must
not take a built store's only copy of its partitions with it.
"""

import gc
import os

import numpy as np

import repro
from repro.data import synthetic
from repro.lifecycle import LifecycleConfig
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.storage.blob_cache import payload_cache

from ..core.conftest import fast_config


def diskstore_dirs(root):
    return [name for name in os.listdir(root)
            if name.startswith("repro-diskstore-")]


def test_store_lifetime_leaves_the_temp_directory_empty(tmp_path, temp_root):
    table = synthetic.single_column(600, "high", seed=4)
    keys = np.asarray(table.column("key"), dtype=np.int64)
    query = {"key": np.concatenate([keys[::7], [10 ** 8]])}
    url = str(tmp_path / "store")

    built = ShardedDeepMapping.fit(
        table, fast_config(epochs=2, aux_auto_compact_rows=4),
        ShardingConfig(n_shards=2, strategy="range",
                       lifecycle=LifecycleConfig(policy="never")))
    reference = built.lookup(query)
    built.save(url)
    assert len(diskstore_dirs(temp_root)) == 2    # one per built shard

    # Opening, either way, and serving lookups needs no directory.
    payload_cache().clear()
    read_only = repro.open(url, writable=False)
    writable = repro.open(url, writable=True)
    for opened in (read_only, writable):
        result = opened.lookup(query)
        np.testing.assert_array_equal(result.found, reference.found)
        np.testing.assert_array_equal(result.values["value"],
                                      reference.values["value"])
    assert len(diskstore_dirs(temp_root)) == 2

    # Mutations: the tiny auto-compact threshold makes the attached
    # tables rebuild their partitions into directories of their own.
    fresh = np.arange(keys.max() + 1, keys.max() + 9, dtype=np.int64)
    writable.insert({"key": fresh, "value": np.asarray(
        table.column("value"))[:fresh.size]})
    writable.update({"key": keys[:8], "value": np.asarray(
        table.column("value"))[8:16]})
    writable.delete({"key": keys[8:16]})
    writable.rebuild()                            # a forced retrain ...
    writable.split_shard(0)                       # ... and a split
    assert writable.lookup({"key": fresh}).found.all()
    assert not writable.lookup({"key": keys[8:16]}).found.any()

    # close() frees runtime resources only: the built store still
    # answers from its own partitions afterwards.
    for store in (built, read_only, writable):
        store.close()
    payload_cache().clear()
    result = built.lookup(query)
    np.testing.assert_array_equal(result.found, reference.found)
    np.testing.assert_array_equal(result.values["value"],
                                  reference.values["value"])

    del built, read_only, writable, opened, store, result, reference
    gc.collect()
    assert os.listdir(temp_root) == []
