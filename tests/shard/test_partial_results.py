"""Partial-result fault isolation on the sharded store.

The contract under test: when one shard fails in ``on_shard_error=
"partial"`` mode, every key routed to a *healthy* shard comes back
bit-identical to the fully-healthy lookup, and every key routed to the
broken shard is marked in ``failed_mask`` with ``found == False``.
Exercised deterministically and as a hypothesis property over random
key subsets and random victim shards.
"""

import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import (Deadline, DeadlineExceeded, PartialResult,
                              PartialResultError)
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.testing import break_shard

from ..core.conftest import fast_config


@pytest.fixture(scope="module")
def store():
    from repro.data import synthetic
    table = synthetic.multi_column(1200, "low", seed=3)
    built = ShardedDeepMapping.fit(
        table, fast_config(epochs=5),
        ShardingConfig(n_shards=4, strategy="range",
                       on_shard_error="partial"),
    )
    yield built
    built.close()


@contextmanager
def raise_mode(store):
    """The module store in ``on_shard_error="raise"`` mode for a while.

    ``replace`` builds a fresh, validated config rather than mutating
    the live one."""
    store.sharding = replace(store.sharding, on_shard_error="raise")
    try:
        yield
    finally:
        store.sharding = replace(store.sharding, on_shard_error="partial")


@pytest.fixture(scope="module")
def all_keys(store):
    # every key the store holds, in a shuffled order
    rng = np.random.default_rng(11)
    keys = np.arange(1200, dtype=np.int64)
    rng.shuffle(keys)
    return keys


class TestPartialContract:
    def test_healthy_lookup_returns_plain_result(self, store, all_keys):
        result = store.lookup({"key": all_keys[:200]})
        # zero-overhead healthy path: no PartialResult wrapper
        assert not isinstance(result, PartialResult)
        assert result.found.all()

    def test_broken_shard_marks_only_its_keys(self, store, all_keys):
        keys = all_keys[:400]
        want = store.lookup({"key": keys})
        restore = break_shard(store, 1)
        try:
            got = store.lookup({"key": keys})
        finally:
            restore()
        assert isinstance(got, PartialResult)
        assert not got.complete
        assert 0 < got.n_failed < keys.size
        failed = got.failed_mask
        # failed keys: marked not-found
        assert not got.found[failed].any()
        # healthy keys: bit-identical to the healthy run
        healthy = ~failed
        assert np.array_equal(got.found[healthy], want.found[healthy])
        for name in want.values:
            assert np.array_equal(got.values[name][healthy],
                                  want.values[name][healthy])
        assert 1 in got.shard_errors
        with pytest.raises(PartialResultError):
            got.raise_if_failed()

    def test_restore_heals_the_store(self, store, all_keys):
        restore = break_shard(store, 2)
        restore()
        result = store.lookup({"key": all_keys[:100]})
        assert not isinstance(result, PartialResult)
        assert result.found.all()

    def test_two_broken_shards_accumulate(self, store, all_keys):
        keys = all_keys
        restores = [break_shard(store, 0), break_shard(store, 3)]
        try:
            got = store.lookup({"key": keys})
        finally:
            for restore in restores:
                restore()
        assert isinstance(got, PartialResult)
        assert set(got.shard_errors) == {0, 3}

    def test_raise_mode_override_propagates(self, store, all_keys):
        restore = break_shard(store, 1)
        try:
            with raise_mode(store), \
                    pytest.raises(RuntimeError, match="injected failure"):
                store.lookup({"key": all_keys[:50]})
        finally:
            restore()

    @pytest.mark.parametrize("budget_s", [None, 30.0],
                             ids=["inline", "executor-lane"])
    def test_raise_mode_picks_the_lowest_failing_ordinal(
            self, store, all_keys, budget_s):
        restores = [break_shard(store, 3), break_shard(store, 1)]
        deadline = None if budget_s is None else Deadline(budget_s)
        try:
            with raise_mode(store), pytest.raises(
                    RuntimeError, match="injected failure in shard 1"):
                store.lookup({"key": all_keys}, deadline=deadline)
        finally:
            for restore in restores:
                restore()


class TestTimeoutClassification:
    def test_job_raised_timeout_is_a_shard_error_not_a_straggler(
            self, store, all_keys):
        # On 3.11+ concurrent.futures.TimeoutError aliases the builtin
        # TimeoutError, so a timeout raised *inside* a finished shard
        # job (e.g. a backend socket timeout) used to be misclassified
        # as a deadline straggler and wrapped in DeadlineExceeded.
        restore = break_shard(
            store, 1,
            exc_factory=lambda: TimeoutError("socket read timed out"))
        try:
            got = store.lookup({"key": all_keys[:400]})
        finally:
            restore()
        assert isinstance(got, PartialResult)
        error = got.shard_errors[1]
        assert isinstance(error, TimeoutError)
        assert not isinstance(error, DeadlineExceeded)
        assert "socket read timed out" in str(error)


    def test_single_shard_batch_is_timed_out_too(self, store):
        # Regression: a deadline-armed batch that routed to ONE shard
        # ran inline ("one job" beat "deadline-bounded calls keep the
        # executor lane"), so a wedged shard held the caller for as
        # long as it liked and the budget was never enforced.
        keys = np.arange(40, dtype=np.int64)
        assert set(store.router.route({"key": keys}).tolist()) == {0}
        release = threading.Event()
        restore = break_shard(store, 0, delay_s=60.0, release=release)
        try:
            started = time.monotonic()
            got = store.lookup({"key": keys}, deadline=Deadline(0.1))
            partial_s = time.monotonic() - started
            started = time.monotonic()
            with raise_mode(store), pytest.raises(DeadlineExceeded):
                store.lookup({"key": keys}, deadline=Deadline(0.1))
            raise_s = time.monotonic() - started
        finally:
            release.set()
            restore()
        assert isinstance(got, PartialResult)
        assert got.failed_mask.all() and not got.found.any()
        assert isinstance(got.shard_errors[0], DeadlineExceeded)
        # the budget plus scheduling slack, nowhere near the 60 s stall
        assert partial_s < 5.0 and raise_s < 5.0


class TestResultIsPrivate:
    def test_shard_errors_do_not_change_after_return(self, store, all_keys):
        # Regression: the bundled wait's worker wrote into the very dict
        # the caller got back inside PartialResult, so a shard that
        # failed *after* the budget ran out replaced its entry behind
        # the caller's back (the arrays were copied for exactly this
        # reason; the dict was not).
        release = threading.Event()
        restore = break_shard(
            store, 1, delay_s=60.0, release=release,
            exc_factory=lambda: RuntimeError("failed after the deadline"))
        try:
            got = store.lookup({"key": all_keys[:400]},
                               deadline=Deadline(0.1))
            assert isinstance(got, PartialResult)
            before = dict(got.shard_errors)
            found, failed = got.found.copy(), got.failed_mask.copy()
            release.set()
            store.close()  # joins the straggler; pools rebuild lazily
        finally:
            release.set()
            restore()
        assert 1 in before
        assert set(got.shard_errors) == set(before)
        assert all(got.shard_errors[o] is before[o] for o in before)
        assert all(isinstance(exc, DeadlineExceeded)
                   for exc in got.shard_errors.values())
        np.testing.assert_array_equal(got.found, found)
        np.testing.assert_array_equal(got.failed_mask, failed)


class TestPartialParityProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           victim=st.integers(min_value=0, max_value=3),
           n=st.integers(min_value=1, max_value=300))
    def test_healthy_positions_bit_identical(self, store, all_keys,
                                             seed, victim, n):
        rng = np.random.default_rng(seed)
        # mix of present and absent keys, with duplicates
        keys = rng.choice(np.arange(-50, 1250, dtype=np.int64), size=n)
        want = store.lookup({"key": keys})
        restore = break_shard(store, victim)
        try:
            got = store.lookup({"key": keys})
        finally:
            restore()
        failed = getattr(got, "failed_mask",
                         np.zeros(keys.size, dtype=bool))
        healthy = ~failed
        assert np.array_equal(got.found[healthy], want.found[healthy])
        for name in want.values:
            assert np.array_equal(got.values[name][healthy],
                                  want.values[name][healthy])
        # every failed position reports not-found, never a stale value
        assert not got.found[failed].any()
