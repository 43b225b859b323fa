"""Unit tests for the pluggable executor strategies."""

import threading

import pytest

from repro.store import (EXECUTOR_NAMES, ExecutorStrategy, SerialStrategy,
                         ThreadPoolStrategy, make_executor)


class TestSerial:
    def test_jobs_run_on_calling_thread(self):
        seen = []
        strategy = SerialStrategy()
        futures = [strategy.submit(seen.append, threading.get_ident())
                   for _ in range(3)]
        assert all(future.done() for future in futures)
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
    def test_jobs_run_on_the_pool(self):
        strategy = ThreadPoolStrategy()
        try:
            futures = [strategy.submit(lambda x: x * x, x)
                       for x in range(20)]
            assert [f.result(timeout=10) for f in futures] == \
                [x * x for x in range(20)]
            assert strategy._pool._max_workers == 2
            assert strategy.submit(threading.get_ident).result(10) \
                != threading.get_ident()
        finally:
            strategy.close()

    def test_close_is_idempotent_and_recoverable(self):
        strategy = ThreadPoolStrategy()
        strategy.submit(lambda: None).result(timeout=10)
        strategy.close()
        strategy.close()
        # A closed strategy lazily rebuilds its pool on next use.
        assert strategy.submit(lambda: 4).result(timeout=10) == 4
        strategy.close()

    def test_exception_propagates_from_a_job(self):
        strategy = ThreadPoolStrategy()

        def boom():
            raise ValueError("worker failure")

        try:
            with pytest.raises(ValueError, match="worker failure"):
                strategy.submit(boom).result(timeout=10)
        finally:
            strategy.close()


class TestMakeExecutor:
    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_names_resolve(self, name):
        strategy = make_executor(name)
        assert strategy.name == name
        assert isinstance(strategy, ExecutorStrategy)
        strategy.close()

    def test_none_is_threads(self):
        strategy = make_executor(None)
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
