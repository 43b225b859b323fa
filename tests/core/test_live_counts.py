"""The live counts of ``T_aux`` and ``V_exist``: kept as rows change.

``len(aux)`` and ``ExistenceIndex.count()`` are read after every write
batch (the retrain rule sums them over a store's shards), so they must
not cost a partition probe or a scan of the bit vector.  These tests pin
the counts to the rows actually held, through random sequences of
writes, compactions and save -> attach round trips, and guard the O(1)
reads by counting the calls that would make them O(history).  No timing
is asserted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AuxiliaryTable
from repro.core.exist_index import (ExistenceIndex, SparseExistenceIndex,
                                    cover, existence_from_state)
from repro.storage import BitVector, zerocopy
from repro.storage.partition import SortedPartitionStore

TASKS = ("a", "b")


def _codes(keys, salt):
    keys = np.asarray(keys, dtype=np.int64)
    return {"a": (keys + salt) % 5, "b": (keys * 3 + salt) % 40}


def _reattach(aux, zero_copy=False):
    clone = AuxiliaryTable(aux.tasks, codec=aux._store.codec.name,
                           target_partition_bytes=256,
                           auto_compact_rows=aux.auto_compact_rows)
    clone.attach(zerocopy.unpack(zerocopy.pack(aux.to_state()),
                                 zero_copy=zero_copy))
    return clone


def _assert_count(aux, model):
    keys, columns = aux.scan()
    assert len(aux) == keys.size == len(model)
    assert sorted(model) == keys.tolist()
    for key, a, b in zip(keys.tolist(), columns["a"].tolist(),
                         columns["b"].tolist()):
        assert model[key] == (a, b)


key_lists = st.lists(st.integers(0, 60), min_size=0, max_size=12)
steps = st.lists(st.one_of(
    st.tuples(st.just("add"), key_lists, st.integers(0, 3)),
    st.tuples(st.just("remove"), key_lists, st.just(0)),
    st.tuples(st.just("compact"), st.just([]), st.just(0)),
    st.tuples(st.sampled_from(["attach", "attach-view"]), st.just([]),
              st.just(0)),
), min_size=1, max_size=25)


class TestAuxiliaryTableCount:
    @settings(max_examples=60, deadline=None)
    @given(initial=st.sets(st.integers(0, 60), max_size=30), steps=steps,
           auto_compact=st.integers(1, 9))
    def test_count_follows_random_writes(self, initial, steps, auto_compact):
        """Add, remove, re-add (duplicates in a batch too), compact and
        to_state -> attach, with a small ``auto_compact_rows``: ``len``
        is always the number of rows a scan finds."""
        keys = np.array(sorted(initial), dtype=np.int64)
        aux = AuxiliaryTable(TASKS, target_partition_bytes=256,
                             auto_compact_rows=auto_compact)
        aux.build(keys, _codes(keys, 0))
        model = {k: tuple(int(c[i]) for c in _codes(keys, 0).values())
                 for i, k in enumerate(keys.tolist())}
        _assert_count(aux, model)
        for op, batch, salt in steps:
            batch = np.array(batch, dtype=np.int64)
            if op == "add":
                codes = _codes(batch, salt)
                aux.add_batch(batch, codes)
                for i, k in enumerate(batch.tolist()):
                    model[k] = (int(codes["a"][i]), int(codes["b"][i]))
            elif op == "remove":
                aux.remove_batch(batch)
                for k in batch.tolist():
                    model.pop(k, None)
            elif op == "compact":
                aux.compact()
            else:
                aux = _reattach(aux, zero_copy=op == "attach-view")
            _assert_count(aux, model)

    def test_len_makes_no_partition_probe(self, monkeypatch):
        keys = np.arange(0, 400, 2, dtype=np.int64)
        aux = AuxiliaryTable(TASKS, target_partition_bytes=256)
        aux.build(keys, _codes(keys, 0))
        aux.add_batch(np.arange(1, 41, 2), _codes(np.arange(1, 41, 2), 1))
        aux.add_batch(keys[:10], _codes(keys[:10], 2))  # overwrites
        aux.remove_batch(keys[20:30])
        calls = []
        real = SortedPartitionStore.lookup_batch
        monkeypatch.setattr(SortedPartitionStore, "lookup_batch",
                            lambda self, k: calls.append(k) or real(self, k))
        for _ in range(3):
            assert len(aux) == keys.size + 20 - 10
        assert calls == []

    def test_write_batch_makes_one_partition_probe(self, monkeypatch):
        keys = np.arange(0, 400, 2, dtype=np.int64)
        aux = AuxiliaryTable(TASKS, target_partition_bytes=256)
        aux.build(keys, _codes(keys, 0))
        calls = []
        real = SortedPartitionStore.lookup_batch
        monkeypatch.setattr(SortedPartitionStore, "lookup_batch",
                            lambda self, k: calls.append(k) or real(self, k))
        batch = np.arange(1, 201, 2)
        aux.add_batch(batch, _codes(batch, 1))
        assert len(calls) == 1
        aux.remove_batch(batch[:50])
        assert len(calls) == 2
        lost = np.arange(50) % 2 == 0
        aux.update_batch(batch[50:], _codes(batch[50:], 3), lost)
        assert len(calls) == 3
        assert len(aux) == keys.size + 50 - 25

    def test_attached_count_is_taken_once_on_first_use(self, monkeypatch):
        keys = np.arange(0, 400, 2, dtype=np.int64)
        aux = AuxiliaryTable(TASKS, target_partition_bytes=256)
        aux.build(keys, _codes(keys, 0))
        aux.add_batch(np.array([1, 2, 3]), _codes([1, 2, 3], 1))
        calls = []
        real = SortedPartitionStore.lookup_batch
        monkeypatch.setattr(SortedPartitionStore, "lookup_batch",
                            lambda self, k: calls.append(k) or real(self, k))
        clone = _reattach(aux)
        assert calls == []
        assert len(clone) == len(aux) == keys.size + 2
        assert len(clone) == keys.size + 2
        assert len(calls) == 1

    def test_attached_empty_overlay_counts_without_a_probe(self, monkeypatch):
        keys = np.arange(0, 400, 2, dtype=np.int64)
        aux = AuxiliaryTable(TASKS, target_partition_bytes=256)
        aux.build(keys, _codes(keys, 0))
        aux.remove_batch(keys[:7])  # tombstones only
        monkeypatch.setattr(SortedPartitionStore, "lookup_batch",
                            lambda self, k: pytest.fail("probed"))
        monkeypatch.setattr(SortedPartitionStore, "load_partition",
                            lambda self, pid: pytest.fail("faulted"))
        assert len(_reattach(aux)) == keys.size - 7


@pytest.mark.parametrize("kind", [ExistenceIndex, SparseExistenceIndex])
class TestExistenceCount:
    def test_flips_count_once(self, kind):
        index = kind(1000)
        assert index.set_batch(np.array([105, 105, 300, 105])) == 2
        assert index.set_batch(np.array([300, 301])) == 1
        assert index.count() == 3
        assert index.clear_batch(np.array([301, 301, 999])) == 1
        assert index.clear_batch(np.array([301])) == 0
        assert index.count() == 2
        np.testing.assert_array_equal(index.existing_keys(), [105, 300])

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(st.tuples(st.booleans(),
                                    st.lists(st.integers(0, 199),
                                             max_size=20)),
                          max_size=20))
    def test_count_follows_random_flips(self, kind, steps):
        index = kind(200)
        live = set()
        for setting, batch in steps:
            batch = np.array(batch, dtype=np.int64)
            if setting:
                index.set_batch(batch)
                live |= set(batch.tolist())
            else:
                index.clear_batch(batch)
                live -= set(batch.tolist())
            assert index.count() == len(live)
            assert index.existing_keys().tolist() == sorted(live)
        again = existence_from_state(index.to_state())
        assert again.count() == len(live)

    def test_count_survives_cover(self, kind):
        index = kind(64)
        index.set_batch(np.arange(0, 64, 4))
        grown = cover(index, 10**7, 17)
        grown.set_batch(np.array([10**7 - 1]))
        assert grown.count() == 17
        assert grown.existing_keys().size == 17


def test_count_never_scans_the_bits_after_open(monkeypatch):
    index = ExistenceIndex(5000)
    index.set_batch(np.arange(0, 5000, 3))
    opened = existence_from_state(index.to_state())
    monkeypatch.setattr(BitVector, "count",
                        lambda self: pytest.fail("recounted the bits"))
    assert opened.count() == len(range(0, 5000, 3))
    opened.set_batch(np.array([1, 1, 2, 3]))
    opened.clear_batch(np.array([6, 9]))
    assert opened.count() == len(range(0, 5000, 3)) + 2 - 2
