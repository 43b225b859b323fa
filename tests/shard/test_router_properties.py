"""Property tests for router invariants (hypothesis).

The router is the store's correctness keystone: every key must route to
exactly one shard, identically before/after a state round trip, and
split/merge must refine/coarsen the partition without ever changing which
*keys* a region owns.  These properties are exercised over adversarial
(skewed, duplicated, extreme-valued) key sets.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.shard import RangeShardRouter

I64 = st.integers(min_value=-(2**62), max_value=2**62)

key_arrays = st.lists(I64, min_size=1, max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.int64))

# Skewed generator: few distinct values, many repeats.
skewed_arrays = st.lists(
    st.sampled_from([0, 1, 2, 5, 1000, -7]), min_size=1, max_size=200,
).map(lambda xs: np.asarray(xs, dtype=np.int64))


@st.composite
def range_routers(draw):
    n_shards = draw(st.integers(min_value=1, max_value=8))
    cuts = sorted(draw(st.lists(I64, min_size=n_shards - 1,
                                max_size=n_shards - 1)))
    return RangeShardRouter(("key",), n_shards, cuts)


@st.composite
def fitted_range_routers(draw):
    """Routers fitted from (possibly skewed) observed keys."""
    keys = draw(st.one_of(key_arrays, skewed_arrays))
    n_shards = draw(st.integers(min_value=1, max_value=8))
    return RangeShardRouter.from_keys({"key": keys}, ("key",), n_shards), keys


class TestRouteTotality:
    @settings(max_examples=60, deadline=None)
    @given(router=range_routers(), keys=key_arrays)
    def test_range_route_is_total(self, router, keys):
        ids = router.route({"key": keys})
        assert ids.shape == keys.shape
        assert ids.min() >= 0 and ids.max() < router.n_shards


class TestStateRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(router=range_routers(), keys=key_arrays)
    def test_range_round_trip_is_stable(self, router, keys):
        restored = RangeShardRouter.from_state(router.to_state())
        np.testing.assert_array_equal(restored.route({"key": keys}),
                                      router.route({"key": keys}))

    @settings(max_examples=40, deadline=None)
    @given(fitted=fitted_range_routers())
    def test_fitted_round_trip_is_stable(self, fitted):
        router, keys = fitted
        restored = RangeShardRouter.from_state(router.to_state())
        np.testing.assert_array_equal(restored.route({"key": keys}),
                                      router.route({"key": keys}))


class TestFittedInvariants:
    @settings(max_examples=60, deadline=None)
    @given(fitted=fitted_range_routers())
    def test_every_fitted_key_routes_to_a_reachable_shard(self, fitted):
        """With >= n_shards distinct values, no shard is unreachable:
        strictly ascending cuts leave every inter-cut gap non-empty."""
        router, keys = fitted
        uniq = np.unique(keys)
        if uniq.size >= router.n_shards:
            assert np.all(np.diff(router.cuts) > 0)
            # Every shard owns at least one observed key.
            ids = router.route({"key": keys})
            assert np.unique(ids).size == router.n_shards

    @settings(max_examples=60, deadline=None)
    @given(fitted=fitted_range_routers())
    def test_shard_assignment_is_monotone(self, fitted):
        router, keys = fitted
        order = np.argsort(keys, kind="stable")
        ids = router.route({"key": keys[order]})
        assert np.all(np.diff(ids) >= 0)


class TestSplitMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(fitted=fitted_range_routers(), data=st.data())
    def test_split_refines_the_partition(self, fitted, data):
        """After a split, the two children partition exactly the parent's
        keys and every other shard keeps its keys (shifted by one)."""
        router, keys = fitted
        ids = router.route({"key": keys})
        # Pick a splittable shard (two distinct observed values).
        candidates = [s for s in range(router.n_shards)
                      if np.unique(keys[ids == s]).size >= 2]
        if not candidates:
            return
        ordinal = data.draw(st.sampled_from(candidates))
        owned = np.unique(keys[ids == ordinal])
        cut = int(data.draw(st.sampled_from(list(owned[1:]))))

        split = router.split_at(ordinal, cut)
        new_ids = split.route({"key": keys})
        assert split.n_shards == router.n_shards + 1
        # Children partition the parent's keys at the cut.
        parent_rows = ids == ordinal
        np.testing.assert_array_equal(
            new_ids[parent_rows],
            np.where(keys[parent_rows] < cut, ordinal, ordinal + 1))
        # Everyone else only shifts.
        np.testing.assert_array_equal(
            new_ids[~parent_rows],
            ids[~parent_rows] + (ids[~parent_rows] > ordinal))

    @settings(max_examples=60, deadline=None)
    @given(router=range_routers(), keys=key_arrays, data=st.data())
    def test_merge_coarsens_the_partition(self, router, keys, data):
        if router.n_shards < 2:
            return
        ordinal = data.draw(st.integers(min_value=0,
                                        max_value=router.n_shards - 2))
        merged = router.merge_at(ordinal)
        ids = router.route({"key": keys})
        new_ids = merged.route({"key": keys})
        assert merged.n_shards == router.n_shards - 1
        expected = np.where(ids <= ordinal, ids, ids - 1)
        np.testing.assert_array_equal(new_ids, expected)

    @settings(max_examples=40, deadline=None)
    @given(router=range_routers(), keys=key_arrays, data=st.data())
    def test_split_then_merge_is_identity(self, router, keys, data):
        if router.n_shards < 2:
            return
        ordinal = data.draw(st.integers(min_value=0,
                                        max_value=router.n_shards - 2))
        boundary = int(router.cuts[ordinal])
        merged = router.merge_at(ordinal)
        lower, upper = merged.bounds_of(ordinal)
        if (lower is not None and boundary <= lower) or \
                (upper is not None and boundary >= upper):
            return  # boundary collapsed onto a neighbouring cut
        restored = merged.split_at(ordinal, boundary)
        np.testing.assert_array_equal(restored.cuts, router.cuts)
        np.testing.assert_array_equal(restored.route({"key": keys}),
                                      router.route({"key": keys}))
