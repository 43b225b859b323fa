"""Hedged range GETs: a stalled fetch is re-issued, not waited out.

The only step of a read that can block for long is a remote store's
range GET.  With ``hedged_reads`` a GET still unanswered at the store's
adaptive hedge delay is abandoned and issued once more, within a
per-read budget, on the same thread — so one stalled replica does not
set the read's latency, and a healthy server is never hedged.  Results
are bit-identical either way.
"""

import time

import numpy as np
import pytest

import repro
from repro.data import synthetic
from repro.resilience.hedging import HedgeController, HedgePolicy
from repro.shard import DeepMapping, ShardingConfig
from repro.storage import LocalDirBackend, StoreStats
from repro.storage.blob_cache import payload_cache
from repro.testing import serve_backend

from ..core.conftest import fast_config


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
        assert controller.arm([0, 0], 30.0) is None

    def test_delay_is_a_multiple_of_the_estimate(self):
        controller = HedgeController(HedgePolicy(delay_factor=4.0,
                                                 min_delay_ms=0.0))
        controller.record(0.002)
        assert controller.arm([0, 0], 30.0) == pytest.approx(0.008)

    def test_delay_floor(self):
        controller = HedgeController(HedgePolicy(delay_factor=2.0,
                                                 min_delay_ms=5.0))
        controller.record(0.0001)
        assert controller.arm([0, 0], 30.0) == pytest.approx(0.005)

    def test_ewma_tracks_recent_durations(self):
        controller = HedgeController(HedgePolicy(ewma_alpha=0.5))
        controller.record(1.0)
        controller.record(3.0)
        assert controller.estimate_s == pytest.approx(2.0)
        controller.record(0.0)  # non-positive samples are ignored
        assert controller.estimate_s == pytest.approx(2.0)

    def test_a_read_hedges_within_its_budget(self):
        controller = HedgeController(HedgePolicy(max_fraction=0.25))
        controller.record(0.001)
        spent = [0, 0]
        assert controller.arm(spent, 30.0) is not None   # one hedge at least
        controller.fire(spent)
        # Spent: the next GETs may not hedge until the read has issued
        # enough of them for a quarter to cover a second hedge.
        assert [controller.arm(spent, 30.0) is not None for _ in range(7)] \
            == [False] * 6 + [True]
        assert spent == [8, 1]

    def test_no_hedge_when_the_gets_own_wait_ends_first(self):
        controller = HedgeController(HedgePolicy(min_delay_ms=50.0))
        controller.record(0.001)
        spent = [0, 0]
        assert controller.arm(spent, 0.05) is None
        assert spent == [1, 0]


@pytest.fixture
def hedged(tmp_path):
    """A hedged 4-shard store, saved and served over loopback HTTP."""
    table = synthetic.single_column(800, "high", seed=2)
    store = DeepMapping.fit(table, fast_config(epochs=2),
                            ShardingConfig(n_shards=4, hedged_reads=True))
    path = str(tmp_path / "store")
    store.save(path)
    payload_cache().clear()
    with serve_backend(LocalDirBackend(path, create=False)) as server:
        yield store, table, server
    payload_cache().clear()
    store.close()


def shard_keys(store, table, ordinal):
    """Every key of ``table`` that routes to shard ``ordinal``."""
    keys = table.column("key")
    return {"key": keys[store.router.route({"key": keys}) == ordinal]}


def assert_same(got, want, names):
    np.testing.assert_array_equal(got.found, want.found)
    for name in names:
        np.testing.assert_array_equal(got.values[name], want.values[name])


class TestHedgedGets:
    def test_a_hedge_rescues_a_stalled_get(self, hedged):
        store, table, server = hedged
        remote = repro.open(server.url)
        assert remote.hedger is not None
        # Hydrating one shard measures what a GET takes.
        remote.lookup(shard_keys(store, table, 0))
        assert remote.hedger.estimate_s is not None
        keys = shard_keys(store, table, 1)
        server.stall_next(1, 2.0)   # the next GET: shard 1's first
        started = time.monotonic()
        got = remote.lookup(keys)
        elapsed = time.monotonic() - started
        counters = remote.stats.counters
        assert elapsed < 1.0   # nowhere near the 2 s stall
        assert counters.get("hedges_launched", 0) >= 1
        assert counters.get("hedges_won", 0) >= 1
        assert_same(got, store.lookup(keys), store.value_names)
        remote.close()

    def test_the_first_read_after_an_open_is_hedged(self, hedged):
        # The open's own GETs (model and existence blobs) seed the
        # controller, so the read a fresh open exists for — the one
        # that downloads cold shards — can already be rescued.
        store, table, server = hedged
        remote = repro.open(server.url)
        assert remote.hedger.estimate_s is not None
        keys = shard_keys(store, table, 1)
        server.stall_next(1, 2.0)   # the first read's first GET
        started = time.monotonic()
        got = remote.lookup(keys)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert remote.stats.counters.get("hedges_won", 0) >= 1
        assert_same(got, store.lookup(keys), store.value_names)
        remote.close()

    def test_a_remote_backend_without_a_hedge_capability_opens(
            self, hedged, tmp_path):
        # A transport with only the one-argument ``bind_stats`` (and no
        # ``bind_hedger``) opens a hedged store; it just is not hedged.
        store, table, _ = hedged
        path = str(tmp_path / "store")

        class Transport:
            remote = True

            def __init__(self):
                self.inner = LocalDirBackend(path, create=False)
                self.stats = StoreStats()

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def bind_stats(self, stats):
                self.stats = stats

        payload_cache().clear()
        remote = DeepMapping.load(Transport())
        assert remote.hedger is not None
        keys = {"key": table.column("key")}
        assert_same(remote.lookup(keys), store.lookup(keys),
                    store.value_names)
        remote.close()

    def test_hedges_stay_within_the_read_budget(self, hedged):
        store, table, server = hedged
        remote = repro.open(server.url)
        remote.lookup(shard_keys(store, table, 0))
        counters = remote.stats.counters
        gets_before = counters.get("range_requests", 0)
        # Every GET of the read stalls, re-issues included: only the
        # budget bounds how many are hedged.  GETs in flight at once are
        # armed against the same count, so they may overdraw it by at
        # most the read's two download threads beside its own.
        server.stall_next(50, 0.3)
        keys = {"key": np.concatenate([shard_keys(store, table, o)["key"]
                                       for o in (1, 2, 3)])}
        got = remote.lookup(keys)
        gets = counters.get("range_requests", 0) - gets_before
        launched = counters.get("hedges_launched", 0)
        assert gets >= 3
        assert 1 <= launched <= max(1, int(0.25 * gets)) + 2
        assert_same(got, store.lookup(keys), store.value_names)
        remote.close()

    def test_a_healthy_http_store_launches_no_hedge(self, hedged):
        store, table, server = hedged
        remote = repro.open(server.url)
        # A floor well above loopback scheduling jitter: this test is
        # about a healthy server, not a busy test runner.
        remote.hedger.policy = HedgePolicy(min_delay_ms=250.0)
        delays = []

        def arm(spent, cap, arm=remote.hedger.arm):
            delays.append(arm(spent, cap))
            return delays[-1]

        remote.hedger.arm = arm
        keys = {"key": table.column("key")}
        for _ in range(3):
            assert_same(remote.lookup(keys), store.lookup(keys),
                        store.value_names)
        assert remote.stats.counters.get("hydrated_shards", 0) == 4
        # The downloads' GETs were armed, and none was re-issued.
        assert any(delay is not None for delay in delays)
        assert remote.stats.counters.get("hedges_launched", 0) == 0
        remote.close()

    def test_an_unhedged_store_never_hedges(self, tmp_path):
        table = synthetic.single_column(400, "high", seed=2)
        store = DeepMapping.fit(table, fast_config(epochs=2),
                                ShardingConfig(n_shards=2))
        assert store.hedger is None
        path = str(tmp_path / "store")
        store.save(path)
        payload_cache().clear()
        try:
            with serve_backend(LocalDirBackend(path,
                                               create=False)) as server:
                remote = repro.open(server.url)
                remote.lookup(shard_keys(store, table, 0))
                server.stall_next(1, 0.3)
                remote.lookup(shard_keys(store, table, 1))
                assert remote.stats.counters.get("hedges_launched", 0) == 0
                remote.close()
        finally:
            payload_cache().clear()

    def test_hedged_reads_round_trips_through_manifest(self, hedged,
                                                       tmp_path):
        store, table, _ = hedged
        target = str(tmp_path / "again")
        store.save(target)
        loaded = DeepMapping.load(target)
        assert loaded.sharding.hedged_reads is True
        assert loaded.hedger is not None
        keys = {"key": table.column("key")}
        assert_same(loaded.lookup(keys), store.lookup(keys),
                    store.value_names)
