"""Fixtures for sharded-store tests: fast builds over small tables."""

import numpy as np
import pytest

from repro.data import ColumnTable, synthetic
from repro.shard import DeepMapping, ShardingConfig

from ..core.conftest import fast_config


@pytest.fixture
def small_table():
    """1.2k-row multi-column table (low correlation -> busy aux tables)."""
    return synthetic.multi_column(1200, "low", seed=3)


@pytest.fixture
def sharded(small_table):
    """A 4-shard range-partitioned store over the small table."""
    return DeepMapping.fit(
        small_table, fast_config(epochs=5),
        ShardingConfig(n_shards=4),
    )


@pytest.fixture
def two_group_table():
    """Composite-key table whose leading column has only two values.

    Range-sharding this across four shards is guaranteed to leave shards
    empty (cut points collapse onto the two observed leading keys).
    """
    grp = np.repeat(np.array([0, 1], dtype=np.int64), 150)
    sub = np.tile(np.arange(150, dtype=np.int64), 2)
    rng = np.random.default_rng(7)
    return ColumnTable(
        {
            "grp": grp,
            "sub": sub,
            "status": rng.choice(np.array(["A", "B", "C"]), size=grp.size),
        },
        key=("grp", "sub"),
        name="two-group",
    )
