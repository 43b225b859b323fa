"""Range placement routes every key shape with one sort.

The read path sorts a batch's live keys once, by the flat codes the
existence stage computed, and cuts the sorted run at the router's cuts
turned into flat codes; writes group their rows, and split and merge
take a shard's live keys and ``T_aux`` rows, by the same cut codes.
All of it rests on the lexicographic codec: ascending flat codes ascend
in the leading column the cuts split.  Everything here is checked
against ``router.route``, the routing oracle the barrier oracle
(``repro.testing.oracles.barrier_lookup``) uses.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import Deadline
from repro.data import ColumnTable, synthetic
from repro.lifecycle import LifecycleConfig
from repro.shard import DeepMapping, RangeShardRouter, ShardingConfig, topology
from repro.shard.manifest import MANIFEST_NAME
from repro.storage import InMemoryBackend
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


def assert_same(actual, expected, value_names):
    np.testing.assert_array_equal(actual.found, expected.found)
    for column in value_names:
        np.testing.assert_array_equal(actual.values[column],
                                      expected.values[column])


def composite_table(lo=0, leading=30, trailing=20, seed=7):
    rng = np.random.default_rng(seed)
    a = np.repeat(np.arange(lo, lo + leading, dtype=np.int64), trailing)
    b = np.tile(np.arange(trailing, dtype=np.int64), leading)
    return ColumnTable({"a": a, "b": b,
                        "v": rng.integers(0, 50, a.size).astype(np.int64)},
                       key=("a", "b"))


def build(table, n_shards, **sharding):
    return DeepMapping.fit(table, fast_config(epochs=3),
                           ShardingConfig(n_shards=n_shards, **sharding))


#: Stores of every key shape the one sort must route.
SHAPES = {
    "single": lambda: build(synthetic.multi_column(1200, "low", seed=5), 4),
    "composite": lambda: build(composite_table(), 3),
    "negative": lambda: build(composite_table(lo=-17), 4),
    "sparse": lambda: build(synthetic.single_column(
        600, "high", seed=2, domain_factor=200.0), 5),
}


def grid(store, b_values):
    """Composite keys: every leading value at a cut, one below it, and
    outside the live range, each paired with every ``b_values`` entry."""
    keys = store.model.key_codec.unflatten(store.exist.existing_keys())
    lo, hi = int(keys["a"].min()), int(keys["a"].max())
    cuts = store.router.cuts
    leading = np.unique(np.concatenate([cuts, cuts - 1,
                                        [lo - 3, lo - 1, hi + 1, hi + 9]]))
    a, b = np.meshgrid(leading, b_values)
    return {"a": a.ravel(), "b": b.ravel()}


def rows_of(store):
    """Every live row as ``{key tuple: value}``, read through routing
    by ``router.route`` (the barrier oracle)."""
    keys = store.model.key_codec.unflatten(store.exist.existing_keys())
    result = barrier_lookup(store, keys)
    assert result.found.all()
    return {tuple(int(keys[name][i]) for name in store.key_names):
            tuple(result.values[c][i] for c in store.value_names)
            for i in range(result.found.size)}


@pytest.mark.parametrize("shape", ["single", "composite"])
def test_lookup_calls_neither_route_nor_lexsort(shape, monkeypatch):
    store = SHAPES[shape]()
    keys = store.model.key_codec.unflatten(store.exist.existing_keys())
    query = {name: np.concatenate([col[::-3], col[:5] + 10**6])
             for name, col in keys.items()}
    expected = barrier_lookup(store, query)

    def refuse(*args, **kwargs):
        raise AssertionError("the read path must not call this")

    monkeypatch.setattr(RangeShardRouter, "route", refuse)
    monkeypatch.setattr(np, "lexsort", refuse)
    result = store.lookup(query)
    monkeypatch.undo()
    assert_same(result, expected, store.value_names)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_each_shard_slice_is_what_the_router_assigns(shape):
    store = SHAPES[shape]()
    keys = store.model.key_codec.unflatten(store.exist.existing_keys())
    owner = store.router.route(keys)
    for first in range(store.n_shards):
        for last in range(first, min(first + 2, store.n_shards)):
            mine = (owner >= first) & (owner <= last)
            got = store.model.key_codec.unflatten(
                topology._live(store, first, last))
            for name in store.key_names:
                np.testing.assert_array_equal(got[name], keys[name][mine])
        assert store.can_split(first) == (
            np.unique(keys[store.key_names[0]][owner == first]).size >= 2)


@pytest.mark.parametrize("move", ["split", "merge", "split-merge"])
def test_composite_parity_after_the_cuts_move(move):
    store = build(composite_table(), 3)
    before = rows_of(store)
    if move in ("split", "split-merge"):
        store.split_shard(1)
    if move in ("merge", "split-merge"):
        store.merge_shards(0)
    assert rows_of(store) == before
    query = grid(store, [-1, 0, 7, 19, 20])
    assert_same(store.lookup(query), barrier_lookup(store, query),
                store.value_names)


def test_composite_append_past_the_max_then_split():
    table = composite_table()
    store = build(table, 3)
    rows = {"a": np.repeat(np.array([30, 31, 35], dtype=np.int64), 4),
            "b": np.tile(np.array([0, 5, 11, 19], dtype=np.int64), 3),
            "v": np.arange(12, dtype=np.int64) % 50}
    store.insert(rows)
    last = store.n_shards - 1
    assert store.can_split(last)
    store.split_shard(last, cut=30)
    hit = store.lookup({"a": rows["a"], "b": rows["b"]})
    assert hit.found.all()
    np.testing.assert_array_equal(hit.values["v"], rows["v"])
    query = grid(store, [0, 5, 19, 20])
    assert_same(store.lookup(query), barrier_lookup(store, query),
                store.value_names)


def test_merge_across_an_emptied_shard():
    """An emptied shard's slice is empty; merging it with either
    neighbour keeps every row."""
    store = build(composite_table(lo=-17), 4)
    keys = store.model.key_codec.unflatten(store.exist.existing_keys())
    mine = store.router.route(keys) == 1
    store.delete({name: col[mine] for name, col in keys.items()})
    assert all(col.size == 0 for col in store.model.key_codec.unflatten(
        topology._live(store, 1, 1)).values())
    before = rows_of(store)
    store.merge_shards(1)
    store.merge_shards(0)
    assert store.n_shards == 2
    assert rows_of(store) == before
    query = grid(store, [-1, 0, 19, 20])
    assert_same(store.lookup(query), barrier_lookup(store, query),
                store.value_names)


@pytest.fixture(scope="module")
def composite_store():
    return build(composite_table(), 3)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hypothesis_composite_batches(composite_store, data):
    store = composite_store
    pairs = data.draw(st.lists(st.tuples(st.integers(-3, 33),
                                         st.integers(-2, 22)),
                               min_size=1, max_size=200))
    if data.draw(st.booleans(), label="repeat"):
        pairs = pairs * 3
    query = {"a": np.array([p[0] for p in pairs], dtype=np.int64),
             "b": np.array([p[1] for p in pairs], dtype=np.int64)}
    assert_same(store.lookup(query), barrier_lookup(store, query),
                store.value_names)


@pytest.mark.parametrize("mode", ["partial", "deadline", "hedged"])
def test_one_shard_generic_path_has_no_cuts_to_cut_at(mode):
    """A one-shard store takes the generic path under partial mode, a
    deadline or a hedger: an empty cut list leaves one group."""
    store = build(composite_table(), 1,
                  on_shard_error="partial" if mode == "partial" else "raise",
                  hedged_reads=mode == "hedged")
    query = grid(store, [-1, 0, 10, 19, 20])
    deadline = Deadline(30.0) if mode == "deadline" else None
    assert_same(store.lookup(query, deadline=deadline),
                barrier_lookup(store, query), store.value_names)
    store.close()


def test_the_engine_rebalances_a_composite_store():
    lifecycle = LifecycleConfig(policy="never", rebalance=True,
                                split_balance=1.1, split_min_rows=8,
                                max_shards=6, max_actions_per_run=4)
    store = build(composite_table(), 2, lifecycle=lifecycle)
    before = rows_of(store)
    rows = {"a": np.repeat(np.arange(30, 40, dtype=np.int64), 20),
            "b": np.tile(np.arange(20, dtype=np.int64), 10),
            "v": np.arange(200, dtype=np.int64) % 50}
    store.insert(rows)
    assert store.engine.summary()["splits"] >= 1
    after = rows_of(store)
    assert {k: v for k, v in after.items() if k in before} == before
    hit = store.lookup({"a": rows["a"], "b": rows["b"]})
    assert hit.found.all()
    np.testing.assert_array_equal(hit.values["v"], rows["v"])


@pytest.mark.parametrize("writable", [True, False])
def test_a_split_composite_store_reopens_with_its_cuts(writable):
    store = build(composite_table(), 2)
    store.split_shard(0)
    backend = InMemoryBackend.named(f"one-sort-split-{writable}")
    try:
        store.save(backend.url)
        with repro.open(backend.url, writable=writable) as opened:
            np.testing.assert_array_equal(opened.router.cuts,
                                          store.router.cuts)
            query = grid(opened, [0, 3, 19, 21])
            assert_same(opened.lookup(query), store.lookup(query),
                        store.value_names)
    finally:
        InMemoryBackend.discard(backend.name)


@pytest.mark.parametrize("n_shards", [1, 4])
def test_the_manifest_still_names_range(n_shards):
    """The on-disk format did not change with the router: version 4,
    router kind and sharding strategy ``"range"``."""
    store = build(composite_table(), n_shards)
    backend = InMemoryBackend.named(f"one-sort-manifest-{n_shards}")
    try:
        store.save(backend.url)
        manifest = json.loads(bytes(backend.read_bytes(MANIFEST_NAME)))
    finally:
        InMemoryBackend.discard(backend.name)
    assert manifest["version"] == 4
    assert manifest["router"] == {"kind": "range", "key_names": ["a", "b"],
                                  "n_shards": n_shards,
                                  "cuts": store.router.cuts.tolist()}
    assert manifest["sharding"]["strategy"] == "range"
