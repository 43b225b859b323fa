"""One plan per request: Algorithm 1 runs once, a shard only probes.

Whatever the shard count, a request flattens its keys once, tests the
store's ``V_exist`` once and runs the kernel at most once; each shard
its live keys touch is probed once (``Shard.probe``, its only read
call), and a batch with no live key touches no shard at all.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.deep_mapping import Shard
from repro.data import synthetic
from repro.data.encoding import CompositeKeyCodec
from repro.nn.compiled import CompiledSession
from repro.resilience import Deadline, PartialResult
from repro.shard import DeepMapping, ShardingConfig
from repro.testing import break_shard
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


def assert_same(actual, expected, value_names):
    np.testing.assert_array_equal(actual.found, expected.found)
    for column in value_names:
        np.testing.assert_array_equal(actual.values[column],
                                      expected.values[column])
        assert actual.values[column].dtype == expected.values[column].dtype


@pytest.fixture(scope="module")
def table():
    return synthetic.single_column(2000, "high", seed=11, domain_factor=2.0)


@pytest.fixture(scope="module")
def store(table):
    return DeepMapping.fit(table, fast_config(epochs=4),
                           ShardingConfig(n_shards=8, executor="serial"))


@pytest.fixture
def calls(store, monkeypatch):
    """Counts of every stage's call, per stage (probes per shard)."""
    seen = Counter()

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            seen[name] += 1
            if name == "probe":
                seen[("probe", store.shards.index(self))] += 1
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counting(CompositeKeyCodec, "try_flatten")
    counting(type(store.exist), "test_batch")
    counting(CompiledSession, "run")
    counting(Shard, "probe")
    return seen


def request(table, store, rng, hits=8, misses=8):
    """``hits`` live keys and ``misses`` in-domain gaps, shuffled."""
    live = table.column("key")
    gaps = np.setdiff1d(np.arange(live.min(), live.max()), live)
    return {"key": rng.permutation(np.concatenate(
        [rng.choice(live, hits, replace=False),
         rng.choice(gaps, misses, replace=False)]))}


def owners(store, keys):
    """Ordinals of the shards the live keys among ``keys`` belong to."""
    live = store.contains_batch(keys)
    return set(store.router.route(
        {"key": keys["key"][live]}).tolist())


@pytest.mark.parametrize("seed", range(4))
def test_a_small_request_runs_every_stage_once(table, store, calls, seed):
    query = request(table, store, np.random.default_rng(seed))
    touched = owners(store, query)
    calls.clear()
    result = store.lookup(query)
    assert calls["try_flatten"] == 1
    assert calls["test_batch"] == 1
    assert calls["run"] <= 1
    assert calls["probe"] == len(touched) > 1
    assert {key[1] for key in calls if isinstance(key, tuple)} == touched
    assert all(count == 1 for key, count in calls.items()
               if isinstance(key, tuple))
    assert_same(result, barrier_lookup(store, query), store.value_names)


def test_a_deadline_keeps_one_probe_per_touched_shard(table, store, calls):
    query = request(table, store, np.random.default_rng(7))
    touched = owners(store, query)
    calls.clear()
    result = store.lookup(query, deadline=Deadline(30.0))
    assert calls["probe"] == len(touched)
    assert (calls["try_flatten"], calls["test_batch"]) == (1, 1)
    assert_same(result, barrier_lookup(store, query), store.value_names)


def test_an_all_miss_batch_probes_no_shard_and_runs_no_kernel(
        table, store, calls):
    query = request(table, store, np.random.default_rng(3), hits=0,
                    misses=64)
    query["key"] = np.concatenate([query["key"], [-10**9, 10**12]])
    calls.clear()
    result = store.lookup(query)
    assert not result.found.any()
    assert calls["probe"] == 0 and calls["run"] == 0
    assert calls["test_batch"] == 1
    assert_same(result, barrier_lookup(store, query), store.value_names)


def test_duplicate_keys_match_the_barrier_oracle(table, store, calls):
    rng = np.random.default_rng(5)
    base = request(table, store, rng)["key"]
    query = {"key": rng.permutation(np.repeat(base, rng.integers(
        1, 5, base.size)))}
    calls.clear()
    result = store.lookup(query)
    assert calls["probe"] == len(owners(store, {"key": base}))
    assert_same(result, barrier_lookup(store, query), store.value_names)


def test_a_failed_probe_fails_exactly_its_window(table):
    store = DeepMapping.fit(
        table, fast_config(epochs=4),
        ShardingConfig(n_shards=8, on_shard_error="partial"))
    rng = np.random.default_rng(9)
    query = request(table, store, rng, hits=40, misses=24)
    query["key"] = np.concatenate([query["key"], query["key"][:10]])
    want = store.lookup(query)
    victim = sorted(owners(store, query))[1]
    restore = break_shard(store, victim)
    try:
        got = store.lookup(query)
    finally:
        restore()
    assert isinstance(got, PartialResult)
    assert set(got.shard_errors) == {victim}
    mine = store.router.route(query) == victim
    np.testing.assert_array_equal(got.failed_mask, mine & want.found)
    healthy = ~got.failed_mask
    np.testing.assert_array_equal(got.found, want.found & healthy)
    for column in store.value_names:
        np.testing.assert_array_equal(got.values[column][healthy],
                                      want.values[column][healthy])
    store.close()
