"""Unit tests for the pluggable executor strategies."""

import threading

import pytest

from repro.resilience import Deadline, DeadlineExceeded
from repro.store import (EXECUTOR_NAMES, ExecutorStrategy, SerialStrategy,
                         ThreadPoolStrategy, make_executor)


class TestSerial:
    def test_jobs_run_on_calling_thread(self):
        seen = []
        strategy = SerialStrategy()
        futures = [strategy.submit_job(seen.append, threading.get_ident())
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


    def test_job_failure_is_carried_by_its_future(self):
        def boom():
            raise RuntimeError("job failed")

        future = SerialStrategy().submit_job(boom)
        assert future.done()
        with pytest.raises(RuntimeError, match="job failed"):
            future.result()

    def test_job_past_its_deadline_never_runs(self):
        ran = []
        future = SerialStrategy().submit_job(
            ran.append, 1, deadline=Deadline(0.0, clock=lambda: 5.0))
        with pytest.raises(DeadlineExceeded, match="queued job"):
            future.result()
        assert ran == []


class TestThreadPool:
    def test_jobs_run_on_the_pool(self):
        strategy = ThreadPoolStrategy(max_workers=4)
        try:
            futures = [strategy.submit_job(lambda x: x * x, x)
                       for x in range(20)]
            assert [f.result(timeout=10) for f in futures] == \
                [x * x for x in range(20)]
        finally:
            strategy.close()

    def test_single_worker_runs_inline(self):
        strategy = ThreadPoolStrategy(max_workers=1)
        seen = []
        for _ in range(3):
            strategy.submit_job(seen.append, threading.get_ident())
        assert set(seen) == {threading.get_ident()}
        assert strategy._pool is None  # never materialized

    def test_one_worker_with_a_deadline_runs_on_the_pool(self):
        # A deadline only isolates the caller from a hung job when the
        # job runs on a thread the caller can abandon.
        strategy = ThreadPoolStrategy(max_workers=1)
        try:
            future = strategy.submit_job(threading.get_ident,
                                         deadline=Deadline(60.0))
            assert future.result(timeout=10) != threading.get_ident()
            assert strategy._pool is not None
        finally:
            strategy.close()

    def test_queued_job_past_its_deadline_never_runs(self):
        now = [0.0]
        release = threading.Event()
        ran = []
        strategy = ThreadPoolStrategy(max_workers=1)
        try:
            blocker = strategy.submit_job(release.wait, 10,
                                          deadline=Deadline(60.0))
            queued = strategy.submit_job(
                ran.append, 1, deadline=Deadline(1.0, clock=lambda: now[0]))
            now[0] = 2.0  # the budget runs out while the job waits
            release.set()
            assert blocker.result(timeout=10) is True
            with pytest.raises(DeadlineExceeded, match="queued job"):
                queued.result(timeout=10)
            assert ran == []
        finally:
            release.set()
            strategy.close()

    def test_submit_runs_off_fanout_pool(self):
        # An async job that fans out onto the same strategy's fan-out
        # lane must not deadlock, even at width 1 (the coordinator is
        # separate).
        strategy = ThreadPoolStrategy(max_workers=1)
        try:
            future = strategy.submit(
                lambda: [strategy.submit_job(lambda x: x + 1, x).result()
                         for x in (1, 2)])
            assert future.result(timeout=10) == [2, 3]
        finally:
            strategy.close()

    def test_close_is_idempotent_and_recoverable(self):
        strategy = ThreadPoolStrategy(max_workers=2)
        strategy.submit_job(lambda: None).result(timeout=10)
        strategy.close()
        strategy.close()
        # A closed strategy lazily rebuilds its pool on next use.
        assert strategy.submit_job(lambda: 4).result(timeout=10) == 4
        strategy.close()

    def test_exception_propagates_from_a_job(self):
        strategy = ThreadPoolStrategy(max_workers=2)

        def boom():
            raise ValueError("worker failure")

        try:
            with pytest.raises(ValueError, match="worker failure"):
                strategy.submit_job(boom).result(timeout=10)
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
