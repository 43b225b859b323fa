"""Tests for StoreStats and Stopwatch."""

import time

import pytest

from repro.storage import Stopwatch, StoreStats


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        with watch.timing():
            time.sleep(0.01)
        with watch.timing():
            time.sleep(0.01)
        assert watch.seconds >= 0.02
        assert watch.calls == 2

    def test_reset(self):
        watch = Stopwatch()
        with watch.timing():
            pass
        watch.reset()
        assert watch.seconds == 0.0
        assert watch.calls == 0

    def test_records_on_exception(self):
        watch = Stopwatch()
        try:
            with watch.timing():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert watch.calls == 1
        stats = StoreStats()
        with pytest.raises(RuntimeError, match="boom"):
            with stats.timing("io"):
                time.sleep(0.001)
                raise RuntimeError("boom")
        assert stats.timer("io").calls == 1
        assert stats.seconds("io") >= 0.001


class TestStoreStats:
    def test_counters_created_on_first_use(self):
        stats = StoreStats()
        stats.bump("reads")
        stats.bump("reads", 4)
        assert stats.counters["reads"] == 5

    def test_timer_registry(self):
        stats = StoreStats()
        with stats.timing("io"):
            pass
        assert stats.seconds("io") >= 0.0
        assert stats.seconds("never_used") == 0.0
        assert stats.timer("io") is stats.timer("io")

    def test_total_seconds_sums_timers(self):
        stats = StoreStats()
        with stats.timing("a"):
            time.sleep(0.005)
        with stats.timing("b"):
            time.sleep(0.005)
        assert stats.total_seconds() >= 0.01

    def test_snapshot_merges_counters_and_timers(self):
        stats = StoreStats()
        stats.bump("hits", 3)
        with stats.timing("io"):
            pass
        snap = stats.snapshot()
        assert snap["hits"] == 3
        assert "io_seconds" in snap

    def test_reset_clears_everything(self):
        stats = StoreStats()
        stats.bump("hits")
        with stats.timing("io"):
            pass
        stats.reset()
        assert stats.counters == {}
        assert stats.seconds("io") == 0.0


class TestThreadSafety:
    """Fan-out threads share one sink: totals must come out exact."""

    def test_concurrent_bumps_timings_and_snapshots_are_exact(self):
        import sys
        import threading

        stats = StoreStats()
        n_threads, n_ops = 4, 300
        errors = []
        start = threading.Barrier(n_threads + 2)

        def worker(index):
            start.wait()
            for i in range(n_ops):
                stats.bump("hits")
                # New timers keep appearing while the reader iterates.
                with stats.timing(f"t{index}-{i % 20}"):
                    pass

        def reader():
            start.wait()
            try:
                while any(t.is_alive() for t in threads):
                    stats.snapshot()
                    stats.total_seconds()
            except RuntimeError as exc:  # dict changed size mid-iteration
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            watcher = threading.Thread(target=reader)
            for thread in threads:
                thread.start()
            watcher.start()
            start.wait()
            for thread in threads:
                thread.join()
            watcher.join()
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        assert stats.counters["hits"] == n_threads * n_ops
        assert sum(w.calls for w in stats.timers.values()) \
            == n_threads * n_ops
        assert len(stats.timers) == n_threads * 20
