"""Tests for the vectorized key→shard routers."""

import numpy as np
import pytest

from repro.shard import RangeShardRouter


class TestRangeRouter:
    def test_balanced_over_uniform_keys(self):
        keys = {"key": np.arange(10_000, dtype=np.int64)}
        router = RangeShardRouter.from_keys(keys, ("key",), 4)
        ids = router.route(keys)
        counts = np.bincount(ids, minlength=4)
        assert counts.min() >= 2400 and counts.max() <= 2600

    def test_contiguous_ranges(self):
        keys = {"key": np.arange(1000, dtype=np.int64)}
        router = RangeShardRouter.from_keys(keys, ("key",), 3)
        ids = router.route(keys)
        # Shard ordinal is monotone in the key: ranges are contiguous.
        assert np.all(np.diff(ids) >= 0)

    def test_out_of_range_keys_clamp_to_edge_shards(self):
        router = RangeShardRouter(("key",), 3, cuts=[100, 200])
        ids = router.route({"key": np.array([-50, 0, 150, 250, 10**9])})
        np.testing.assert_array_equal(ids, [0, 0, 1, 2, 2])

    def test_single_shard_has_no_cuts(self):
        keys = {"key": np.arange(100, dtype=np.int64)}
        router = RangeShardRouter.from_keys(keys, ("key",), 1)
        assert router.cuts.size == 0
        assert np.all(router.route(keys) == 0)

    def test_state_round_trip(self):
        router = RangeShardRouter(("a", "b"), 4, cuts=[10, 20, 30])
        restored = RangeShardRouter.from_state(router.to_state())
        assert isinstance(restored, RangeShardRouter)
        assert restored.key_names == ("a", "b")
        np.testing.assert_array_equal(restored.cuts, router.cuts)
        probe = {"a": np.arange(50, dtype=np.int64),
                 "b": np.zeros(50, dtype=np.int64)}
        np.testing.assert_array_equal(restored.route(probe),
                                      router.route(probe))

    def test_validation(self):
        with pytest.raises(ValueError):
            RangeShardRouter(("k",), 3, cuts=[5])  # wrong count
        with pytest.raises(ValueError):
            RangeShardRouter(("k",), 3, cuts=[9, 5])  # not ascending


class TestState:
    def test_from_state_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown router kind"):
            RangeShardRouter.from_state({"kind": "alien"})

    def test_a_hash_router_state_names_its_last_reader(self):
        with pytest.raises(ValueError, match="212a3db"):
            RangeShardRouter.from_state(
                {"kind": "hash", "key_names": ["key"], "n_shards": 4,
                 "seed": 0})


class TestRangeRouterSkew:
    def test_duplicate_heavy_keys_yield_strict_cuts(self):
        """A hot value occupying several quantile positions used to
        produce duplicate cuts — shards boxed between equal cuts were
        permanently empty and unreachable."""
        keys = {"key": np.concatenate([
            np.arange(50, dtype=np.int64),
            np.full(300, 7, dtype=np.int64),
        ])}
        router = RangeShardRouter.from_keys(keys, ("key",), 4)
        assert np.all(np.diff(router.cuts) > 0)
        ids = router.route(keys)
        # Every shard owns at least one live key.
        assert np.unique(ids).size == 4

    def test_fewer_distinct_values_than_shards_stay_reachable(self):
        """With k < n distinct values, n - k shards must stay empty, but
        every one of them remains reachable by future keys."""
        keys = {"key": np.repeat(np.array([10, 20], dtype=np.int64), 100)}
        router = RangeShardRouter.from_keys(keys, ("key",), 5)
        ids = router.route(keys)
        assert np.unique(ids).size == 2  # the two live values
        # Probing a wide key range reaches every shard ordinal.
        probe = router.route({"key": np.arange(0, 100, dtype=np.int64)})
        assert np.unique(probe).size == 5

    def test_single_distinct_value(self):
        keys = {"key": np.full(50, 3, dtype=np.int64)}
        router = RangeShardRouter.from_keys(keys, ("key",), 3)
        assert np.all(router.route(keys) == 0)


class TestSplitMerge:
    def make(self):
        return RangeShardRouter(("key",), 3, cuts=[100, 200])

    def test_split_inserts_cut(self):
        split = self.make().split_at(1, 150)
        np.testing.assert_array_equal(split.cuts, [100, 150, 200])
        assert split.n_shards == 4
        ids = split.route({"key": np.array([50, 120, 170, 250])})
        np.testing.assert_array_equal(ids, [0, 1, 2, 3])

    def test_split_edge_shards(self):
        low = self.make().split_at(0, 10)
        np.testing.assert_array_equal(low.cuts, [10, 100, 200])
        high = self.make().split_at(2, 1000)
        np.testing.assert_array_equal(high.cuts, [100, 200, 1000])

    def test_split_validates_cut_inside_range(self):
        router = self.make()
        with pytest.raises(ValueError):
            router.split_at(1, 100)  # equals lower bound
        with pytest.raises(ValueError):
            router.split_at(1, 200)  # equals upper bound
        with pytest.raises(ValueError):
            router.split_at(0, 500)  # outside shard 0 entirely

    def test_merge_removes_boundary(self):
        merged = self.make().merge_at(0)
        np.testing.assert_array_equal(merged.cuts, [200])
        assert merged.n_shards == 2
        ids = merged.route({"key": np.array([50, 150, 250])})
        np.testing.assert_array_equal(ids, [0, 0, 1])

    def test_merge_validates_ordinal(self):
        router = self.make()
        with pytest.raises(ValueError):
            router.merge_at(2)  # last shard has no right neighbour
        with pytest.raises(ValueError):
            router.merge_at(-1)

    def test_originals_are_unchanged(self):
        router = self.make()
        router.split_at(1, 150)
        router.merge_at(0)
        np.testing.assert_array_equal(router.cuts, [100, 200])

    def test_bounds_of(self):
        router = self.make()
        assert router.bounds_of(0) == (None, 100)
        assert router.bounds_of(1) == (100, 200)
        assert router.bounds_of(2) == (200, None)
        with pytest.raises(IndexError):
            router.bounds_of(3)
