"""Shared fixtures for the serving-tier suite.

One 4-shard store (and a one-shard sibling, ``mono_store``) is built
per session — the suite hammers it from many threads but never mutates
it, which is exactly the ``repro.open(url, writable=False)`` serving
contract.
"""

import numpy as np
import pytest

from repro.core import DeepMappingConfig
from repro.data import ColumnTable
from repro.shard import DeepMapping, ShardingConfig

#: Live keys stride 3 so two thirds of the contiguous domain are
#: in-domain misses; values exercise two dtypes.
N_ROWS = 900


def _table() -> ColumnTable:
    keys = np.arange(N_ROWS, dtype=np.int64) * 3
    return ColumnTable(
        {"sku": keys,
         "price": (keys * 7) % 127,
         "qty": (keys % 11).astype(np.int64)},
        key=("sku",))


def _config() -> DeepMappingConfig:
    return DeepMappingConfig(epochs=2, batch_size=256, shared_sizes=(24,),
                             private_sizes=(12,), seed=7)


@pytest.fixture(scope="session")
def live_keys():
    return np.arange(N_ROWS, dtype=np.int64) * 3


@pytest.fixture(scope="session")
def sharded_store():
    store = DeepMapping.fit(_table(), _config(),
                                   ShardingConfig(n_shards=4))
    yield store
    store.close()


@pytest.fixture(scope="session")
def mono_store():
    store = DeepMapping.fit(_table(), _config())
    yield store
    store.close()
