"""Fixtures for the unified-store API tests: one table, one and four
shards.

Stores are module-scoped (fitting is the slow part); tests that mutate a
store must build their own.
"""

import numpy as np
import pytest

from repro import DeepMapping, ShardingConfig
from repro.data import synthetic

from ..core.conftest import fast_config


@pytest.fixture(scope="module")
def api_table():
    """Small multi-column table with gaps (low correlation, busy aux)."""
    return synthetic.multi_column(900, "low", seed=11)


@pytest.fixture(scope="module")
def one_shard(api_table):
    """A default (one-shard) store over the table (read-only in tests)."""
    return DeepMapping.fit(api_table, fast_config(epochs=5))


@pytest.fixture(scope="module")
def sharded(api_table):
    """A 4-shard range store over the table (read-only in tests)."""
    return DeepMapping.fit(api_table, fast_config(epochs=5),
                           ShardingConfig(n_shards=4))


@pytest.fixture(scope="module")
def query_keys(api_table):
    """A mixed hit/miss key batch (last quarter is guaranteed misses)."""
    live = api_table.column("key")[:300]
    missing = np.arange(10**7, 10**7 + 100, dtype=np.int64)
    return {"key": np.concatenate([live, missing])}


def assert_same_result(actual, expected, value_names):
    """Bit-identical LookupResult comparison."""
    np.testing.assert_array_equal(actual.found, expected.found)
    for column in value_names:
        np.testing.assert_array_equal(actual.values[column],
                                      expected.values[column])
