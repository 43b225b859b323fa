"""Tests for the range-query extensions (paper Sec. IV-E)."""

import numpy as np
import pytest

from repro import DeepMapping
from repro.core import build_range_view, lookup_range
from repro.data import ColumnTable, synthetic, tpch

from .conftest import fast_config


@pytest.fixture(scope="module")
def mapping():
    table = synthetic.single_column(600, "high")
    return table, DeepMapping.fit(table, fast_config(epochs=40))


class TestLookupRange:
    def test_exact_range_contents(self, mapping):
        table, dm = mapping
        keys, result = lookup_range(dm, {"key": 100}, {"key": 149})
        assert keys["key"].tolist() == list(range(100, 150))
        assert result.found.all()
        np.testing.assert_array_equal(
            result.values["value"], table.column("value")[100:150]
        )

    def test_empty_range(self, mapping):
        _, dm = mapping
        keys, result = lookup_range(dm, {"key": 5000}, {"key": 6000})
        assert keys["key"].size == 0
        assert len(result) == 0

    def test_range_respects_deletions(self, mapping):
        table = synthetic.single_column(200, "high", seed=5)
        dm = DeepMapping.fit(table, fast_config(epochs=20))
        dm.delete({"key": np.arange(10, 20)})
        keys, _ = lookup_range(dm, {"key": 0}, {"key": 29})
        assert keys["key"].size == 20
        assert not any(10 <= k < 20 for k in keys["key"].tolist())

    def test_missing_bounds_rejected(self, mapping):
        _, dm = mapping
        with pytest.raises(KeyError):
            lookup_range(dm, {"key": 0}, {})

    def test_composite_key_range(self):
        table = tpch.generate("lineitem", scale=0.02)
        dm = DeepMapping.fit(table, fast_config(epochs=2))
        low = {"l_orderkey": 1, "l_linenumber": 1}
        high = {"l_orderkey": 40, "l_linenumber": 7}
        keys, result = lookup_range(dm, low, high)
        assert result.found.all()
        assert (keys["l_orderkey"] <= 40).all()


class TestRangeView:
    def test_view_answers_sampled_ranges(self, mapping):
        _, dm = mapping
        ranges = [(0, 63), (64, 127), (128, 191), (192, 255)]
        view = build_range_view(dm, "value", ranges,
                                config=fast_config(epochs=30))
        probe = {"range_low": np.array([64]), "range_high": np.array([127])}
        result = view.lookup(probe)
        assert result.found.all()
        # The mode over a high-correlation block equals its dominant value.
        _, exact = lookup_range(dm, {"key": 64}, {"key": 127})
        values, counts = np.unique(exact.values["value"], return_counts=True)
        assert result.values["mode_value"][0] == values[counts.argmax()]

    def test_unsampled_range_is_null(self, mapping):
        _, dm = mapping
        view = build_range_view(dm, "value", [(0, 63)],
                                config=fast_config(epochs=10))
        probe = {"range_low": np.array([1]), "range_high": np.array([50])}
        assert not view.lookup(probe).found.any()

    def test_unknown_column_rejected(self, mapping):
        _, dm = mapping
        with pytest.raises(KeyError):
            build_range_view(dm, "nope", [(0, 1)])

    def test_empty_ranges_rejected(self, mapping):
        _, dm = mapping
        with pytest.raises(ValueError):
            build_range_view(dm, "value", [])
