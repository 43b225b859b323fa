"""A retired ``T_aux`` keeps its answers.

A rebuild (explicit, or forced by an insert outside the key domain)
swaps a fresh auxiliary table in and retires the old one, which only
purges its partitions from the pool it shares with its successor: a
reader still holding it gets bit-identical answers from
``lookup_batch``.
"""

import numpy as np

from repro.core import DeepMapping
from repro.data import synthetic

from .conftest import fast_config


def fitted():
    table = synthetic.single_column(1500, "low", seed=2)
    return DeepMapping.fit(table, fast_config(epochs=2,
                                              aux_auto_compact_rows=10_000))


def record(aux):
    keys, _ = aux.scan()
    probe = np.concatenate([keys, [-1, int(keys.max()) + 1]])
    return probe, aux.lookup_batch(probe)


def assert_same(aux, probe, reference):
    found, codes = aux.lookup_batch(probe)
    np.testing.assert_array_equal(found, reference[0])
    for task, values in reference[1].items():
        np.testing.assert_array_equal(codes[task][found],
                                      values[reference[0]])


def mutate(dm):
    """Leave a live overlay and tombstones in ``dm``'s ``T_aux``."""
    keys, _ = dm.aux.scan()
    dm.delete({"key": keys[:5]})
    dm.update({"key": keys[5:10], "value": np.asarray(
        dm.lookup({"key": keys[10:15]}).values["value"])})


def test_aux_retired_by_rebuild_answers_as_before():
    dm = fitted()
    mutate(dm)
    retired = dm.aux
    assert len(retired) > 0
    probe, before = record(retired)
    dm.rebuild()
    assert dm.aux is not retired and dm.aux.pool is retired.pool
    assert_same(retired, probe, before)


def test_aux_retired_by_a_domain_widening_insert_answers_as_before():
    dm = fitted()
    mutate(dm)
    retired = dm.aux
    probe, before = record(retired)
    far = int(dm.to_table().column("key").min()) - 5  # below: a retrain
    dm.insert({"key": np.array([far], dtype=np.int64),
               "value": np.asarray(dm.lookup(
                   {"key": probe[:1]}).values["value"])})
    assert dm.aux is not retired
    assert dm.lookup_one(key=far) is not None
    assert_same(retired, probe, before)
