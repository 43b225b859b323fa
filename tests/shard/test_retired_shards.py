"""Readers holding a retired shard keep their answers.

A lookup takes one topology snapshot per batch, so a split or merge can
retire a shard while a reader still holds it.  Retiring only purges the
shard's partitions from the shared pool: its fences, partition bytes,
overlay and tombstones stay with the object, so the retired shard
answers bit-identically to before (and its bytes are freed with it).
"""

import numpy as np
import pytest

from repro.data import synthetic
from repro.shard import DeepMapping, ShardingConfig

from ..core.conftest import fast_config


@pytest.fixture
def store():
    table = synthetic.single_column(3000, "low", seed=1)
    return DeepMapping.fit(
        table, fast_config(epochs=2),
        ShardingConfig(n_shards=2))


def probe_for(store, ordinal):
    """Every live key shard ``ordinal`` owns (T_aux rows among them, taken
    from the store's one index) plus misses."""
    keys = store.model.key_codec.unflatten(store.exist.existing_keys())["key"]
    live = keys[store.router.route({"key": keys}) == ordinal]
    misses = np.array([-5, int(live.max()) + 10 ** 6], dtype=np.int64)
    return {"key": np.concatenate([live, misses])}


def assert_same(result, reference):
    np.testing.assert_array_equal(result.found, reference.found)
    for column, values in reference.values.items():
        np.testing.assert_array_equal(result.values[column], values)


def answers(store, ordinal):
    probe = probe_for(store, ordinal)
    return probe, store.shards[ordinal].plan_lookup(probe).execute()


def test_a_shard_retired_by_a_split_answers_as_before(store):
    retired = store.shards[0]
    assert len(retired.aux) > 0, "fixture should leave rows in T_aux"
    probe, before = answers(store, 0)
    store.split_shard(0)
    assert all(shard is not retired for shard in store.shards)
    assert_same(retired.plan_lookup(probe).execute(), before)
    # What a retired shard faults in is served, not cached: nothing
    # would ever evict it from the shared (unbounded) pool.
    retired_keys = {meta.pool_key for meta in retired.aux._store.partitions}
    assert not retired_keys & set(store.pool.cached_keys())


def test_shards_retired_by_a_merge_answer_as_before(store):
    first, second = store.shards
    recorded = [answers(store, 0), answers(store, 1)]
    store.merge_shards(0)
    for shard, (probe, before) in zip((first, second), recorded):
        assert_same(shard.plan_lookup(probe).execute(), before)
    # The merged shard serves both halves' keys from its own partitions.
    for probe, before in recorded:
        assert_same(store.lookup(probe), before)
