"""No store ever creates anything in the temporary directory.

A partition's compressed bytes live in the buffer its store holds — the
codec's output for one built in this process, a slice of the store file
for one opened from it — so no step of a store's life needs a file of
its own: not a build, a save, either open, mutations that compact
``T_aux``, a rebuild, a split, a merge, or a close.
"""

import os

import numpy as np

import repro
from repro.data import synthetic
from repro.lifecycle import LifecycleConfig
from repro.shard import DeepMapping, ShardingConfig
from repro.storage.blob_cache import payload_cache

from ..core.conftest import fast_config


def test_no_step_of_a_store_lifetime_touches_the_temp_directory(
        tmp_path, temp_root):
    table = synthetic.single_column(600, "high", seed=4)
    keys = np.asarray(table.column("key"), dtype=np.int64)
    values = np.asarray(table.column("value"))
    query = {"key": np.concatenate([keys[::7], [10 ** 8]])}
    url = str(tmp_path / "store")

    def step(label):
        assert os.listdir(temp_root) == [], f"{label} left temporary files"

    built = DeepMapping.fit(
        table, fast_config(epochs=2, aux_auto_compact_rows=4),
        ShardingConfig(n_shards=2,
                       lifecycle=LifecycleConfig(policy="never")))
    reference = built.lookup(query)
    step("build")
    built.save(url)
    step("save")

    payload_cache().clear()
    read_only = repro.open(url, writable=False)
    step("read-only open")
    writable = repro.open(url, writable=True)
    step("writable open")
    for opened in (read_only, writable):
        result = opened.lookup(query)
        np.testing.assert_array_equal(result.found, reference.found)
        np.testing.assert_array_equal(result.values["value"],
                                      reference.values["value"])
    step("lookups")

    # The tiny auto-compact threshold rebuilds the attached tables'
    # partitions on every few mutations.
    fresh = np.arange(keys.max() + 1, keys.max() + 9, dtype=np.int64)
    writable.insert({"key": fresh, "value": values[:fresh.size]})
    writable.update({"key": keys[:8], "value": values[8:16]})
    writable.delete({"key": keys[8:16]})
    step("mutations with compaction")
    writable.rebuild()
    step("rebuild")
    writable.split_shard(0)
    step("split")
    writable.merge_shards(0)
    step("merge")
    assert writable.lookup({"key": fresh}).found.all()
    assert not writable.lookup({"key": keys[8:16]}).found.any()

    # close() frees runtime resources only: the built store still
    # answers from the partitions it holds afterwards.
    for store in (built, read_only, writable):
        store.close()
    step("close")
    result = built.lookup(query)
    np.testing.assert_array_equal(result.found, reference.found)
    np.testing.assert_array_equal(result.values["value"],
                                  reference.values["value"])
    step("lookup after close")
