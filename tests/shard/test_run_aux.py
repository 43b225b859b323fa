"""The ``T_aux`` stage of one plan, driven by hand.

``LookupPlan.run_aux`` probes each shard's window on the calling thread,
in ordinal order.  With ``isolate`` a failing probe is its window's
error alone and the next window is still probed; without it the first
failure — the lowest failing ordinal — raises and nothing after it is
probed.  A deadline is checked before each probe, so once it has
passed, that window and every later one fail with ``DeadlineExceeded``
unprobed.  A fake clock makes the expiry exact, with no sleeps.
"""

import numpy as np
import pytest

from repro.core.plan import LookupPlan
from repro.data import synthetic
from repro.resilience import Deadline, DeadlineExceeded
from repro.shard import DeepMapping, ShardingConfig
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config


@pytest.fixture(scope="module")
def store():
    table = synthetic.single_column(800, "high", seed=6)
    built = DeepMapping.fit(table, fast_config(epochs=3),
                            ShardingConfig(n_shards=4))
    yield built
    built.close()


@pytest.fixture
def keys(store):
    return {"key": np.arange(-5, 900, dtype=np.int64)}


class Scripted:
    """A shard that logs its probes and, on cue, fails or moves a fake
    clock forward."""

    def __init__(self, inner, ordinal, log, *, exc=None, advance=None):
        self._inner, self._ordinal, self._log = inner, ordinal, log
        self._exc, self._advance = exc, advance

    def probe(self, flat, hit, labels):
        self._log.append(self._ordinal)
        if self._advance is not None:
            self._advance()
        if self._exc is not None:
            raise self._exc
        self._inner.probe(flat, hit, labels)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def plan_over(store, keys, shards):
    _, model, _, exist, cut_codes = store._topology
    plan = LookupPlan(model, exist, shards, cut_codes, keys, store.stats)
    plan.run_existence()
    plan.run_route()
    return plan


def scripted(store, log, **per_ordinal):
    """Every shard of ``store`` behind :class:`Scripted`; ``per_ordinal``
    maps ``"s<i>"`` to that shard's keyword arguments."""
    return [Scripted(shard, i, log, **per_ordinal.get(f"s{i}", {}))
            for i, shard in enumerate(store.shards)]


def owner(store, keys):
    return store.router.route(keys)


def assert_answered_where_healthy(store, keys, plan, failed):
    result = plan.finish({c: store.value_dtype(c) for c in store.value_names})
    want = barrier_lookup(store, keys)
    mask = np.isin(owner(store, keys), list(failed))
    if failed:
        np.testing.assert_array_equal(plan.failed, mask & want.found)
    healthy = ~mask
    np.testing.assert_array_equal(result.found[healthy], want.found[healthy])
    assert not result.found[mask].any()
    for name in store.value_names:
        np.testing.assert_array_equal(result.values[name][healthy],
                                      want.values[name][healthy])


def test_no_argument_probes_every_window_and_fails_none(store, keys):
    log = []
    plan = plan_over(store, keys, scripted(store, log))
    assert plan.run_aux() == {}
    assert log == [0, 1, 2, 3]
    assert plan.failed is None
    plan.run_inference()
    assert_answered_where_healthy(store, keys, plan, failed=())


def test_isolate_collects_each_failing_window(store, keys):
    log = []
    one, three = RuntimeError("shard 1"), OSError("shard 3")
    plan = plan_over(store, keys, scripted(
        store, log, s1={"exc": one}, s3={"exc": three}))
    errors = plan.run_aux(isolate=True)
    assert errors == {1: one, 3: three}
    assert errors is plan.errors
    assert log == [0, 1, 2, 3]
    plan.run_inference()
    assert_answered_where_healthy(store, keys, plan, failed=(1, 3))


def test_without_isolate_the_lowest_failing_ordinal_raises(store, keys):
    log = []
    plan = plan_over(store, keys, scripted(
        store, log, s1={"exc": RuntimeError("shard 1")},
        s3={"exc": RuntimeError("shard 3")}))
    with pytest.raises(RuntimeError, match="shard 1"):
        plan.run_aux()
    assert log == [0, 1]


def test_an_empty_window_is_not_probed(store):
    log = []
    keys = {"key": np.arange(0, 40, dtype=np.int64)}
    assert set(owner(store, keys).tolist()) == {0}
    plan = plan_over(store, keys, scripted(
        store, log, s1={"exc": RuntimeError("never probed")}))
    assert plan.run_aux(isolate=True) == {}
    assert log == [0]


@pytest.mark.parametrize("isolate", [True, False])
def test_a_spent_deadline_fails_this_window_and_every_later_one(
        store, keys, isolate):
    now = [0.0]
    deadline = Deadline(1.0, clock=lambda: now[0])

    def overrun():
        now[0] = 2.0

    log = []
    plan = plan_over(store, keys, scripted(
        store, log, s1={"advance": overrun}))
    if not isolate:
        with pytest.raises(DeadlineExceeded, match="shard 2 lookup"):
            plan.run_aux(deadline)
        assert log == [0, 1]
        return
    errors = plan.run_aux(deadline, isolate=True)
    # Shard 1 was probed (and answered) before the budget ran out.
    assert log == [0, 1]
    assert set(errors) == {2, 3}
    assert all(isinstance(exc, DeadlineExceeded) for exc in errors.values())
    plan.run_inference()
    assert_answered_where_healthy(store, keys, plan, failed=(2, 3))
