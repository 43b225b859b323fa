"""Fixtures for core tests: fast configs and small tables."""

import numpy as np
import pytest

from repro import DeepMapping
from repro.core import DeepMappingConfig
from repro.data import ColumnTable, synthetic


def fast_config(**overrides):
    """A config that builds in well under a second."""
    defaults = dict(
        epochs=25,
        batch_size=256,
        shared_sizes=(32,),
        private_sizes=(16,),
        learning_rate=0.003,
        aux_partition_bytes=4096,
    )
    defaults.update(overrides)
    return DeepMappingConfig(**defaults)


@pytest.fixture
def small_high_table():
    """1k-row fully-learnable table (multi-column, high correlation)."""
    return synthetic.multi_column(1000, "high")


@pytest.fixture
def small_low_table():
    """1k-row noise table (multi-column, low correlation)."""
    return synthetic.multi_column(1000, "low")


@pytest.fixture
def fitted_high(small_high_table):
    """A DeepMapping over the high-correlation table."""
    return DeepMapping.fit(small_high_table, fast_config())


@pytest.fixture
def sparse_table():
    """Table with gaps in the key domain (every third key exists)."""
    keys = np.arange(0, 3000, 3, dtype=np.int64)
    rng = np.random.default_rng(8)
    return ColumnTable(
        {
            "key": keys,
            "status": rng.choice(np.array(["A", "B", "C"]), size=keys.size),
        },
        key=("key",),
        name="sparse",
    )
