"""Byte budget of the benchmark-shaped store.

Compression is the paper's headline claim, and bytes — unlike timings —
repeat exactly for a seed, so they can be pinned in tier-1.  The store
has the shape ``bench/`` measures (8 range shards, one 64-wide shared
layer and one 32-wide private layer, 4 KiB ``T_aux`` partitions, the
gapped high-correlation table) at its 20 000-row smoke scale, seed 0.

The ceilings are this store's bytes with the store's one model on disk
bit-packed (the width chosen by Eq. 1), ``T_aux`` partitions stored as
key gaps plus raw codes and the store's one ``V_exist`` saved once as
``exist.rzc``, plus ~4 % headroom.  ``T_aux`` holds the serving
kernel's near-ties as well as its errors, so a kernel that rounds a
near-tie the other way no longer moves rows in or out of it.
Before the weights were packed the same store was 146 483 B on disk
(7.32 B/row) with 82 272 B of model; while the manifest also carried a
Bloom filter per shard it was 86 635 B (4.33 B/row), 19 267 B of it
manifest; while ``T_aux`` partitions were pickled int64 keys and codes
it was 76 302 B (3.82 B/row), 22 980 B of it ``T_aux``; while the
manifest carried a negative filter over the key set it was 27 225 B
(1.36 B/row), 8 625 B of it manifest; while each shard trained a model
of its own the model was 21 480 B (8 shards x 3-bit weights) and
``T_aux`` 6 904 B (9 461 rows).  Lower a ceiling when a change
shrinks the store; a change that has to raise one is a storage
regression and needs that argued.
"""

import os

import pytest

import repro
from repro import DeepMappingConfig, LifecycleConfig, ShardingConfig
from repro.data import synthetic
from repro.shard import DeepMapping
from repro.storage import LocalDirBackend

ROWS = 20_000

#: Measured: 19 607 B on disk = 0.98 B/row, 5 320 B of it exist.rzc.
DISK_BYTES_PER_ROW = 1.02
#: Measured: 1 863 B of manifest.json (no key set).
MANIFEST_BYTES = 1_950
#: Measured: 4 293 B (the store's one model, 5-bit weights).
MODEL_BYTES = 4_470
#: Measured: 2 013 B for 1 566 auxiliary rows in 8 partitions (one per
#: shard), all with one-byte key gaps.
AUX_BYTES = 2_100


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    table = synthetic.single_column(ROWS, "high", seed=0, domain_factor=2.0)
    config = DeepMappingConfig(
        epochs=12, batch_size=512, shared_sizes=(64,), private_sizes=(32,),
        aux_partition_bytes=4 * 1024)
    sharding = ShardingConfig(
        n_shards=8,
        lifecycle=LifecycleConfig(policy="aux-ratio", aux_ratio=0.5,
                                  rebalance=True))
    store = repro.build(table, config, sharding=sharding)
    directory = str(tmp_path_factory.mktemp("byte-budget") / "store")
    store.save(LocalDirBackend(directory).url)
    yield store, directory
    store.close()


def test_bytes_on_disk_per_row(saved):
    _, directory = saved
    on_disk = sum(os.path.getsize(os.path.join(directory, name))
                  for name in os.listdir(directory))
    assert on_disk / ROWS <= DISK_BYTES_PER_ROW
    assert os.path.getsize(
        os.path.join(directory, "manifest.json")) <= MANIFEST_BYTES


def test_paper_accounting(saved):
    store, _ = saved
    report = store.size_report()
    assert report.n_rows == ROWS
    assert report.model_bytes <= MODEL_BYTES
    assert report.aux_bytes <= AUX_BYTES
    # The one model's weights are stored packed: unpacked float16 it
    # would be 4 935 parameters x 2 B = 9 870 B.
    assert store.model.session.bits is not None
    assert all(shard.model is store.model
               for shard in store.shards if shard is not None)


def test_a_sharded_store_stores_existence_once():
    """The store keeps one ``V_exist`` whatever its shard count: an
    8-shard store of the 50k-row benchmark table (``bench/spec.py``,
    seed 0) has exactly the existence bytes of a 1-shard store of it.
    When every shard kept a window of its own, an 8-shard hash store
    had 46 668 B against 12 519 B."""
    table = synthetic.single_column(50_000, "high", seed=0,
                                    domain_factor=2.0)
    config = DeepMappingConfig(epochs=1, batch_size=4096,
                               shared_sizes=(16,), private_sizes=(8,))
    exist_bytes = {}
    for n_shards in (8, 1):
        store = DeepMapping.fit(table, config,
                                ShardingConfig(n_shards=n_shards))
        exist_bytes[n_shards] = store.size_report().exist_bytes
        store.close()
    assert exist_bytes[8] == exist_bytes[1]
