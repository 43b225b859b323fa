"""Unit tests for the pluggable executor strategies."""

import threading

import pytest

from repro.store import (EXECUTOR_NAMES, ExecutorStrategy, SerialStrategy,
                         ThreadPoolStrategy, make_executor)


class TestSerial:
    def test_map_preserves_order(self):
        strategy = SerialStrategy()
        assert strategy.map(lambda x: x * 2, range(5)) == [0, 2, 4, 6, 8]

    def test_map_runs_on_calling_thread(self):
        seen = []
        SerialStrategy().map(lambda _: seen.append(threading.get_ident()),
                             range(3))
        assert set(seen) == {threading.get_ident()}

    def test_submit_returns_resolved_future(self):
        future = SerialStrategy().submit(lambda a, b: a + b, 2, b=3)
        assert future.done()
        assert future.result() == 5

    def test_submit_carries_exception(self):
        def boom():
            raise RuntimeError("nope")

        future = SerialStrategy().submit(boom)
        assert future.done()
        with pytest.raises(RuntimeError, match="nope"):
            future.result()


class TestThreadPool:
    def test_map_preserves_order(self):
        strategy = ThreadPoolStrategy(max_workers=4)
        try:
            assert strategy.map(lambda x: x * x, range(20)) == \
                [x * x for x in range(20)]
        finally:
            strategy.close()

    def test_single_worker_runs_inline(self):
        strategy = ThreadPoolStrategy(max_workers=1)
        seen = []
        strategy.map(lambda _: seen.append(threading.get_ident()), range(3))
        assert set(seen) == {threading.get_ident()}
        assert strategy._pool is None  # never materialized

    def test_single_job_runs_inline(self):
        strategy = ThreadPoolStrategy(max_workers=4)
        seen = []
        strategy.map(lambda _: seen.append(threading.get_ident()), [0])
        assert seen == [threading.get_ident()]
        assert strategy._pool is None

    def test_submit_runs_off_fanout_pool(self):
        # An async job that fans out onto the same strategy's map must
        # not deadlock, even at width 1 (the coordinator is separate).
        strategy = ThreadPoolStrategy(max_workers=1)
        try:
            future = strategy.submit(strategy.map, lambda x: x + 1, [1, 2])
            assert future.result(timeout=10) == [2, 3]
        finally:
            strategy.close()

    def test_close_is_idempotent_and_recoverable(self):
        strategy = ThreadPoolStrategy(max_workers=2)
        strategy.map(lambda x: x, range(4))
        strategy.close()
        strategy.close()
        # A closed strategy lazily rebuilds its pool on next use.
        assert strategy.map(lambda x: x, range(4)) == [0, 1, 2, 3]
        strategy.close()

    def test_exception_propagates_from_map(self):
        strategy = ThreadPoolStrategy(max_workers=2)

        def maybe_boom(x):
            if x == 3:
                raise ValueError("worker failure")
            return x

        try:
            with pytest.raises(ValueError, match="worker failure"):
                strategy.map(maybe_boom, range(8))
        finally:
            strategy.close()


class TestMakeExecutor:
    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_names_resolve(self, name):
        strategy = make_executor(name, max_workers=2)
        assert strategy.name == name
        assert isinstance(strategy, ExecutorStrategy)
        strategy.close()

    def test_none_is_threads(self):
        strategy = make_executor(None, max_workers=2)
        assert isinstance(strategy, ThreadPoolStrategy)
        strategy.close()

    def test_instance_passes_through(self):
        instance = SerialStrategy()
        assert make_executor(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("fibers")

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            make_executor(42)
