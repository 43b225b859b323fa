"""A fan-out attempt never writes into the lookup it was launched for.

Under a deadline or a hedger a shard's ``T_aux`` probe runs on a worker
and may outlive the wait: the deadline abandons it, or a backup attempt
wins the race.  Each attempt probes into arrays of its own, and the
dispatching thread copies the first clean one into the plan, so what a
held attempt writes once it is released lands nowhere a caller can see:
not in the returned arrays, and not in the plan's hit and label arrays.
"""

import threading

import numpy as np
import pytest

from repro.core.plan import LookupPlan
from repro.resilience import Deadline, PartialResult
from repro.shard import DeepMapping, ShardingConfig
from repro.testing import break_shard

from ..core.conftest import fast_config


class Scribbler:
    """A shard whose probes, once ``released`` is set, scribble over the
    arrays they were handed after answering into them."""

    def __init__(self, inner, released: threading.Event):
        self._inner = inner
        self._released = released
        self.scribbled = threading.Event()

    def probe(self, flat, hit, labels):
        self._inner.probe(flat, hit, labels)
        if self._released.is_set():
            hit[:] = ~hit
            for column in labels.values():
                column[:] = -1
            self.scribbled.set()

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def plans(monkeypatch):
    """Every plan that reaches its decode stage, in order."""
    seen = []
    finish = LookupPlan.finish

    def recording(self, *args, **kwargs):
        seen.append(self)
        return finish(self, *args, **kwargs)
    monkeypatch.setattr(LookupPlan, "finish", recording)
    return seen


def frozen(result, plan):
    """Copies of what a lookup returned and of the plan's aux arrays."""
    return (result.found.copy(),
            {name: column.copy() for name, column in result.values.items()},
            plan._aux_hit.copy(),
            {task: labels.copy() for task, labels in plan._labels.items()})


def assert_unchanged(result, plan, before):
    found, values, hit, labels = before
    np.testing.assert_array_equal(result.found, found)
    for name, column in values.items():
        np.testing.assert_array_equal(result.values[name], column)
    np.testing.assert_array_equal(plan._aux_hit, hit)
    for task, column in labels.items():
        np.testing.assert_array_equal(plan._labels[task], column)


def hold(store, ordinal, release, **sabotage):
    """Hold shard ``ordinal``'s probe until ``release``; returns the
    scribbler wrapped around it and the restorer."""
    restore = break_shard(store, ordinal, delay_s=60.0, release=release,
                          **sabotage)
    scribbler = Scribbler(store.shards[ordinal], release)
    store.shards[ordinal] = scribbler
    return scribbler, restore


def test_a_hedged_attempt_that_loses_writes_nothing_it_returned(
        small_table, plans):
    store = DeepMapping.fit(
        small_table, fast_config(epochs=4),
        ShardingConfig(n_shards=4, max_workers=4, hedged_reads=True))
    keys = {"key": np.random.default_rng(5).permutation(
        small_table.column("key"))[:200]}
    baseline = store.lookup(keys)  # warms the hedge delay
    release = threading.Event()
    scribbler, restore = hold(store, 1, release, slow_first=1)
    try:
        got = store.lookup(keys)
        before = frozen(got, plans[-1])
        release.set()
        assert scribbler.scribbled.wait(10.0)
    finally:
        release.set()
        restore()
        store.close()
    assert store.stats.counters.get("hedges_won", 0) >= 1
    assert not isinstance(got, PartialResult)
    assert_unchanged(got, plans[-1], before)
    np.testing.assert_array_equal(got.found, baseline.found)
    for name in store.value_names:
        np.testing.assert_array_equal(got.values[name],
                                      baseline.values[name])


def test_an_attempt_past_its_deadline_writes_nothing_it_returned(
        small_table, plans):
    store = DeepMapping.fit(
        small_table, fast_config(epochs=4),
        ShardingConfig(n_shards=4, on_shard_error="partial"))
    keys = {"key": small_table.column("key")}
    release = threading.Event()
    scribbler, restore = hold(store, 1, release)
    try:
        got = store.lookup(keys, deadline=Deadline(0.2))
        before = frozen(got, plans[-1])
        release.set()
        assert scribbler.scribbled.wait(10.0)
        store.close()  # joins the released bundle's remaining probes
    finally:
        release.set()
        restore()
        store.close()
    assert isinstance(got, PartialResult) and 1 in got.shard_errors
    assert_unchanged(got, plans[-1], before)
