"""Byte budget of the benchmark-shaped store.

Compression is the paper's headline claim, and bytes — unlike timings —
repeat exactly for a seed, so they can be pinned in tier-1.  The store
has the shape ``bench/`` measures (8 range shards, one 64-wide shared
layer and one 32-wide private layer, 4 KiB ``T_aux`` partitions, the
gapped high-correlation table) at its 20 000-row smoke scale, seed 0.

The ceilings are this store's bytes with weights on disk bit-packed
(the width chosen per shard by Eq. 1), ``T_aux`` partitions stored as
key gaps plus raw codes and the store's one ``V_exist`` saved once as
``exist.rzc``, plus ~4 % headroom (the model and ``T_aux`` ceilings
still date from one model per shard).  ``T_aux`` holds the serving
kernel's near-ties as well as its errors, so a kernel that rounds a
near-tie the other way no longer moves rows in or out of it.
Before the weights were packed the same store was 146 483 B on disk
(7.32 B/row) with 82 272 B of model; while the manifest also carried a
Bloom filter per shard it was 86 635 B (4.33 B/row), 19 267 B of it
manifest; while ``T_aux`` partitions were pickled int64 keys and codes
it was 76 302 B (3.82 B/row), 22 980 B of it ``T_aux``; while the
manifest carried a negative filter over the key set it was 27 225 B
(1.36 B/row), 8 625 B of it manifest.  Lower a ceiling when a change
shrinks the store; a change that has to raise one is a storage
regression and needs that argued.
"""

import os

import pytest

import repro
from repro import DeepMappingConfig, LifecycleConfig, ShardingConfig
from repro.data import synthetic
from repro.shard import ShardedDeepMapping
from repro.storage import LocalDirBackend

ROWS = 20_000

#: Measured: 19 607 B on disk = 0.98 B/row, 5 320 B of it exist.rzc.
DISK_BYTES_PER_ROW = 1.02
#: Measured: 1 863 B of manifest.json (no key set).
MANIFEST_BYTES = 1_950
#: Measured: 21 480 B (8 shards x 3-bit weights).
MODEL_BYTES = 22_400
#: Measured: 6 904 B for 9 461 auxiliary rows in 24 partitions, all
#: with one-byte key gaps (22 980 B as pickled int64 keys and codes).
AUX_BYTES = 7_200


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    table = synthetic.single_column(ROWS, "high", seed=0, domain_factor=2.0)
    config = DeepMappingConfig(
        epochs=12, batch_size=512, shared_sizes=(64,), private_sizes=(32,),
        aux_partition_bytes=4 * 1024)
    sharding = ShardingConfig(
        n_shards=8, strategy="range",
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
    # Every shard's weights are stored packed: the unpacked float16
    # model alone (4 935 parameters x 2 B x 8 shards) would be 78 960 B.
    assert all(shard.session.bits is not None for shard in store.shards)


def test_a_hash_store_stores_existence_once():
    """The store keeps one ``V_exist`` whatever its router: an 8-shard
    hash store of the 50k-row benchmark table (``bench/spec.py``, seed
    0) has no more existence bytes than a 1-shard store of it.  When
    every hash bucket kept a full-domain window it had 46 668 B against
    12 519 B."""
    table = synthetic.single_column(50_000, "high", seed=0,
                                    domain_factor=2.0)
    config = DeepMappingConfig(epochs=1, batch_size=4096,
                               shared_sizes=(16,), private_sizes=(8,))
    exist_bytes = {}
    for n_shards, strategy in ((8, "hash"), (1, "range")):
        store = ShardedDeepMapping.fit(
            table, config, ShardingConfig(n_shards=n_shards,
                                          strategy=strategy))
        exist_bytes[n_shards] = store.size_report().exist_bytes
        store.close()
    assert exist_bytes[8] <= exist_bytes[1]
