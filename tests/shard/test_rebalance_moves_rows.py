"""Split and merge move ``T_aux`` rows; they never re-encode them.

Under one unchanged model a shard's ``T_aux`` is exactly the live rows
of its window the model loses, so a split cuts its rows at the cut's
flat code and a merge joins two shards' rows.  Neither runs a lookup,
the kernel or :meth:`Model.encode`.  Every shard they make is checked,
byte for byte, against the shard the rows of its window would give if
they were encoded again — the path rebalancing used to take, kept here
as the reference.
"""

import numpy as np
import pytest

from repro.core.deep_mapping import Shard
from repro.core.model import Model
from repro.data import synthetic
from repro.nn.compiled import CompiledSession
from repro.shard import DeepMapping, ShardingConfig, read_path

from ..core.conftest import fast_config


def build_with_pending_writes():
    """A 4-shard store whose ``T_aux`` tables hold overlay rows and
    tombstones next to their partitions, and the dict of its rows."""
    table = synthetic.multi_column(1600, "low", seed=5, domain_factor=2.0)
    store = DeepMapping.fit(table, fast_config(epochs=3),
                            ShardingConfig(n_shards=4, executor="serial"))
    truth = table.columns_dict()
    rows = synthetic.insert_batch(table, 120, "low", seed=3, mode="gaps")
    store.insert(rows)
    held = np.concatenate([shard.aux.scan()[0] for shard in store.shards])
    gone = held[::7]  # keys T_aux partitions hold: deleting them tombstones
    store.delete({"key": gone})
    for name, col in rows.columns_dict().items():
        truth[name] = np.concatenate([truth[name], col])
    keep = ~np.isin(truth["key"], gone)
    truth = {name: col[keep] for name, col in truth.items()}
    for shard in store.shards:
        assert shard.aux._overlay and shard.aux._tombstones
    return store, truth


def reference_shard(store, truth, ordinal):
    """Shard ``ordinal`` as the rows of its window encoded again: its
    live keys routed by ``router.route``, their values from ``truth``."""
    owner = store.router.route({"key": truth["key"]})
    mine = np.flatnonzero(owner == ordinal)
    mine = mine[np.argsort(truth["key"][mine])]
    columns = {name: col[mine] for name, col in truth.items()}
    flat, labels, lost = store.model.encode(columns)
    return Shard.materialize(store.model, store.exist, flat[lost],
                             {t: codes[lost] for t, codes in labels.items()},
                             flat.size)


def assert_same_shard(actual, expected):
    assert len(actual) == len(expected)
    got, want = actual.aux.to_state(), expected.aux.to_state()
    for name in ("overlay_keys", "overlay_codes", "tombstones"):
        np.testing.assert_array_equal(got[name], want[name])
        assert got[name].dtype == want[name].dtype
    got_store, want_store = got["store"], want["store"]
    assert got_store.keys() == want_store.keys()
    for name, value in got_store.items():
        if name == "partitions":
            assert [bytes(part.raw()) for part in value] == \
                [bytes(part.raw()) for part in want_store[name]]
        else:
            assert value == want_store[name], name


def assert_moved_shards_are_their_references(store, truth, ordinals):
    for ordinal in ordinals:
        assert_same_shard(store.shards[ordinal],
                          reference_shard(store, truth, ordinal))


def assert_lossless(store, truth):
    result = store.lookup({"key": truth["key"]})
    assert result.found.all()
    for name in store.value_names:
        np.testing.assert_array_equal(result.values[name], truth[name])


@pytest.fixture
def counted(monkeypatch):
    """Calls, per name, of the kernel, the store's read path and
    ``Model.encode`` from here on."""
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((CompiledSession, "run"),
                        (CompiledSession, "classify"),
                        (read_path, "lookup"), (Model, "encode")):
        count(owner, name)
    return calls


def test_split_and_merge_run_no_kernel_lookup_or_encode(counted):
    store, truth = build_with_pending_writes()
    counted.clear()
    lower, upper = store.router.bounds_of(2)
    cut = store.split_shard(2, cut=(lower + upper) // 2)
    assert cut == (lower + upper) // 2
    assert store.router.cuts[2] == cut
    store.split_shard(0)
    store.merge_shards(1)
    store.merge_shards(3)
    assert store.n_shards == 4  # every shard is one a move made
    assert counted == {}
    assert_moved_shards_are_their_references(store, truth, range(4))
    assert_lossless(store, truth)


def test_merge_across_shards_emptied_by_deletes(counted):
    store, truth = build_with_pending_writes()
    owner = store.router.route({"key": truth["key"]})
    emptied = (owner == 1) | (owner == 2)
    store.delete({"key": truth["key"][emptied]})
    truth = {name: col[~emptied] for name, col in truth.items()}
    assert store.shard_row_counts()[1:3] == [0, 0]
    counted.clear()
    store.merge_shards(1)
    assert store.shards[1] is None
    assert store.n_shards == 3
    store.merge_shards(0)  # an emptied pair's window joins a live shard
    assert counted == {}
    assert store.shard_row_counts() == [int((owner == 0).sum()),
                                        int((owner == 3).sum())]
    assert_moved_shards_are_their_references(store, truth, [0])
    assert_lossless(store, truth)
