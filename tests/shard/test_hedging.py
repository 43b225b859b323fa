"""Hedged shard reads: straggler tails bounded by backup attempts.

One chaos-slowed shard must not set a fused batch's tail: once an
attempt runs well past its peers, the store launches one backup of the
same pure read and takes whichever finishes first — bit-identical
either way (see ``resilience/hedging.py`` for the idempotency
argument).  Healthy stores must hedge (approximately) never.

These tests pin ``max_workers=4``: with the default worker count on a
small host the pool dispatches inline during submission and there is
nothing concurrent to hedge against.
"""

import time

import numpy as np
import pytest

from repro.resilience.hedging import HedgeController, HedgePolicy
from repro.shard import DeepMapping, ShardingConfig
from repro.testing import break_shard

from ..core.conftest import fast_config


def hedging_store(table) -> DeepMapping:
    return DeepMapping.fit(
        table, fast_config(epochs=5),
        ShardingConfig(n_shards=4, max_workers=4,
                       hedged_reads=True))


def spread_keys(table, rng, n=200):
    """Existing keys from across the whole range (touch every shard)."""
    return {"key": rng.permutation(table.column("key"))[:n]}


class TestHedgePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(delay_factor=0.5)
        with pytest.raises(ValueError):
            HedgePolicy(min_delay_ms=-1.0)
        with pytest.raises(ValueError):
            HedgePolicy(max_fraction=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(max_fraction=1.5)
        with pytest.raises(ValueError):
            HedgePolicy(ewma_alpha=0.0)


class TestHedgeController:
    def test_cold_controller_never_hedges(self):
        controller = HedgeController()
        assert controller.estimate_s is None
        assert controller.hedge_delay_s() is None

    def test_delay_prefers_batch_peers_over_ewma(self):
        controller = HedgeController(HedgePolicy(delay_factor=4.0,
                                                 min_delay_ms=0.0))
        controller.record(10.0)  # stale cross-batch history
        # This batch's peers finished in ~2 ms: hedge at 4x their median,
        # not 4x the EWMA.
        delay = controller.hedge_delay_s([0.001, 0.002, 0.003])
        assert delay == pytest.approx(0.008)
        assert controller.hedge_delay_s() == pytest.approx(40.0)

    def test_delay_floor(self):
        controller = HedgeController(HedgePolicy(delay_factor=2.0,
                                                 min_delay_ms=5.0))
        assert controller.hedge_delay_s([0.0001]) == pytest.approx(0.005)

    def test_ewma_tracks_recent_durations(self):
        controller = HedgeController(HedgePolicy(ewma_alpha=0.5))
        controller.record(1.0)
        controller.record(3.0)
        assert controller.estimate_s == pytest.approx(2.0)
        controller.record(0.0)  # non-positive samples are ignored
        assert controller.estimate_s == pytest.approx(2.0)

    def test_batch_budget(self):
        controller = HedgeController(HedgePolicy(max_fraction=0.25))
        assert controller.batch_budget(0) == 0
        assert controller.batch_budget(1) == 1   # floor: always one hedge
        assert controller.batch_budget(4) == 1
        assert controller.batch_budget(16) == 4


class TestHedgedReads:
    def test_hedge_rescues_a_transiently_slow_shard(self, small_table):
        store = hedging_store(small_table)
        rng = np.random.default_rng(5)
        keys = spread_keys(small_table, rng)
        baseline = store.lookup(keys)  # warm: every shard contributes

        # The shard dawdles 0.5 s on its FIRST call only — the exact
        # fault hedging exists for: a retry of the same work is fast.
        restore = break_shard(store, 1, delay_s=0.5, slow_first=1)
        try:
            started = time.monotonic()
            rescued = store.lookup(keys)
            elapsed = time.monotonic() - started
        finally:
            restore()
        # The backup attempt won long before the 0.5 s straggler.
        assert elapsed < 0.45
        assert store.stats.counters.get("hedges_launched", 0) >= 1
        assert store.stats.counters.get("hedges_won", 0) >= 1
        # Bit-identical to the healthy read: hedging is invisible in the
        # data plane.
        np.testing.assert_array_equal(rescued.found, baseline.found)
        for column in store.value_names:
            np.testing.assert_array_equal(rescued.values[column],
                                          baseline.values[column])

    def test_healthy_store_hedges_never(self, small_table):
        store = hedging_store(small_table)
        rng = np.random.default_rng(6)
        for _ in range(20):
            store.lookup(spread_keys(small_table, rng, n=120))
        launched = store.stats.counters.get("hedges_launched", 0)
        attempts = 20 * 4  # batches x shards
        assert launched / attempts < 0.10  # the acceptance gate's bound

    def test_budget_bounds_hedges_per_batch(self, small_table):
        store = hedging_store(small_table)
        rng = np.random.default_rng(7)
        keys = spread_keys(small_table, rng)
        store.lookup(keys)  # warm the duration estimate
        # Every shard dawdles on its next call: without the budget this
        # batch would hedge all four jobs.
        restores = [break_shard(store, ordinal, delay_s=0.3, slow_first=1)
                    for ordinal in range(4)]
        try:
            store.lookup(keys)
        finally:
            for restore in restores:
                restore()
        launched = store.stats.counters.get("hedges_launched", 0)
        assert 1 <= launched <= store.hedger.batch_budget(4)

    def test_hedging_off_by_default(self, small_table):
        store = DeepMapping.fit(
            small_table, fast_config(epochs=5),
            ShardingConfig(n_shards=4, max_workers=4))
        assert store.hedger is None
        rng = np.random.default_rng(8)
        store.lookup(spread_keys(small_table, rng))
        assert store.stats.counters.get("hedges_launched", 0) == 0

    def test_hedged_reads_round_trips_through_manifest(self, small_table,
                                                       tmp_path):
        store = hedging_store(small_table)
        target = str(tmp_path / "hedged-store")
        store.save(target)
        loaded = DeepMapping.load(target)
        assert loaded.sharding.hedged_reads is True
        assert loaded.hedger is not None
        rng = np.random.default_rng(9)
        keys = spread_keys(small_table, rng)
        want = store.lookup(keys)
        got = loaded.lookup(keys)
        np.testing.assert_array_equal(got.found, want.found)
