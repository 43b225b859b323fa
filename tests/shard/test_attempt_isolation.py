"""A shard probe that fails part-way writes nothing the lookup returns.

A probe answers into its window's slices of the plan's hit and label
arrays as it goes, so one that fails after answering some of its keys —
a partitioned ``T_aux`` whose next partition's range GET runs past the
read's deadline, say — has already written into them.  The plan clears
a failed window's hits before decoding, so its keys come back failed
and not found, never half-answered.
"""

import numpy as np

from repro.core.plan import LookupPlan
from repro.resilience import Deadline, DeadlineExceeded, PartialResult
from repro.shard import DeepMapping, ShardingConfig

from ..core.conftest import fast_config


class AnswersThenTimesOut:
    """A shard whose probe answers every key, then finds the read's
    deadline spent and raises."""

    def __init__(self, inner, deadline: Deadline):
        self._inner = inner
        self._deadline = deadline

    def probe(self, flat, hit, labels):
        self._inner.probe(flat, hit, labels)
        assert hit.any()  # the window really was written into
        self._deadline.expires_at = self._deadline.clock()
        self._deadline.check("partition fetch")

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_an_attempt_past_its_deadline_writes_nothing_it_returned(
        small_table, monkeypatch):
    plans = []
    finish = LookupPlan.finish

    def recording(self, *args, **kwargs):
        plans.append(self)
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(LookupPlan, "finish", recording)
    store = DeepMapping.fit(
        small_table, fast_config(epochs=4),
        ShardingConfig(n_shards=4, on_shard_error="partial"))
    keys = {"key": small_table.column("key")}
    deadline = Deadline(60.0)
    original = store.shards[1]
    store.shards[1] = AnswersThenTimesOut(original, deadline)
    try:
        got = store.lookup(keys, deadline=deadline)
    finally:
        store.shards[1] = original
        store.close()
    assert isinstance(got, PartialResult)
    assert set(got.shard_errors) == {1, 2, 3}
    assert all(isinstance(exc, DeadlineExceeded)
               for exc in got.shard_errors.values())
    plan = plans[-1]
    edges = plan._edges
    assert edges[2] > edges[1]  # shard 1's window was not empty
    assert not plan._aux_hit[edges[1]:].any()
    assert not got.found[got.failed_mask].any()
    assert got.found[~got.failed_mask].all()
