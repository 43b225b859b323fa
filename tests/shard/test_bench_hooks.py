"""The hooks the benchmark's stage replay reads, pinned here.

``bench/tracing.py`` times each shard's ``T_aux`` probe by the
``locate`` and ``search`` timers of its ``aux.stats`` and reads the pool
counters off ``store.stats``; it replays a request per shard through
``Shard.plan_lookup(keys, presorted=True)``, driving ``run_aux()``
without a dispatcher, and ``bench/worker.plan_fixed_us`` runs such a
plan whole.  A read-only eight-shard open is what the benchmark reads.
"""

import numpy as np
import pytest

import repro
from repro.data import synthetic
from repro.shard import ShardingConfig
from repro.storage import payload_cache

from ..core.conftest import fast_config


@pytest.fixture(scope="module")
def table():
    return synthetic.single_column(3000, "high", seed=5, domain_factor=2.0)


@pytest.fixture
def opened(tmp_path, table):
    url = str(tmp_path / "store")
    repro.build(table, fast_config(epochs=3, aux_partition_bytes=512),
                sharding=ShardingConfig(n_shards=8), url=url)
    payload_cache().clear()
    store = repro.open(url, writable=False)
    yield store
    store.close()
    payload_cache().clear()


def owned(store, keys):
    """``(ordinal, shard, its keys)`` for every shard ``keys`` touch."""
    owner = store.router.route({"key": keys})
    return [(ordinal, shard, keys[owner == ordinal])
            for ordinal, shard in enumerate(store.shards)
            if (owner == ordinal).any()]


def test_a_lookup_advances_the_probe_timers_and_the_pool_counters(
        opened, table):
    keys = np.sort(table.column("key"))[::3]
    touched = owned(opened, keys)
    assert len(touched) == 8
    opened.lookup({"key": keys})  # faults every touched partition in
    before = [shard.aux.stats.snapshot() for _, shard, _ in touched]
    hits = opened.stats.snapshot().get("pool_hits", 0)
    opened.lookup({"key": keys})
    for (ordinal, shard, _), old in zip(touched, before):
        assert len(shard.aux) > 0, f"shard {ordinal} holds no T_aux row"
        new = shard.aux.stats.snapshot()
        for timer in ("locate_seconds", "search_seconds"):
            assert new[timer] > old[timer], (ordinal, timer)
    assert opened.stats.snapshot()["pool_hits"] > hits


def test_a_presorted_shard_plan_answers_as_the_store(opened, table):
    keys = np.sort(table.column("key"))
    for ordinal, shard, mine in owned(opened, keys):
        segment = {"key": mine}
        expected = opened.lookup(segment)
        whole = shard.plan_lookup(segment, presorted=True).execute()
        staged = shard.plan_lookup(segment, presorted=True)
        staged.run_existence()
        assert staged.run_aux() == {}
        staged.run_inference()
        for got in (whole, staged.finish()):
            assert got.found.all()
            np.testing.assert_array_equal(got.found, expected.found)
            np.testing.assert_array_equal(got.values["value"],
                                          expected.values["value"])
