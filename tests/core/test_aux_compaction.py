"""Tests for auxiliary-table auto-compaction and overlay accounting."""

import numpy as np
import pytest

from repro import DeepMapping
from repro.core import AuxiliaryTable
from repro.data import synthetic

from .conftest import fast_config


def fresh_aux(auto_compact_rows=8):
    keys = np.arange(0, 100, 2, dtype=np.int64)
    aux = AuxiliaryTable(("v",), target_partition_bytes=512,
                         auto_compact_rows=auto_compact_rows)
    aux.build(keys, {"v": keys % 5})
    return aux


class TestAutoCompaction:
    def test_triggers_at_threshold(self):
        aux = fresh_aux(auto_compact_rows=4)
        for i in range(3):
            aux.add_batch(np.array([200 + i]), {"v": np.array([1])})
        assert len(aux._overlay) == 3  # below threshold, still buffered
        aux.add_batch(np.array([300]), {"v": np.array([2])})
        assert len(aux._overlay) == 0  # threshold reached -> compacted
        found, codes = aux.lookup_batch(np.array([300]))
        assert found[0] and codes["v"][0] == 2

    def test_tombstones_count_toward_threshold(self):
        aux = fresh_aux(auto_compact_rows=3)
        aux.remove_batch(np.array([0, 2, 4]))
        assert len(aux._tombstones) == 0  # compaction folded them in
        found, _ = aux.lookup_batch(np.array([0, 2, 4]))
        assert not found.any()

    def test_content_identical_across_compaction(self):
        loose = fresh_aux(auto_compact_rows=10_000)
        eager = fresh_aux(auto_compact_rows=1)
        rng = np.random.default_rng(3)
        for _ in range(30):
            key = int(rng.integers(0, 400))
            if rng.random() < 0.6:
                value = int(rng.integers(0, 5))
                loose.add_batch(np.array([key]), {"v": np.array([value])})
                eager.add_batch(np.array([key]), {"v": np.array([value])})
            else:
                loose.remove_batch(np.array([key]))
                eager.remove_batch(np.array([key]))
        probe = np.arange(400, dtype=np.int64)
        found_a, codes_a = loose.lookup_batch(probe)
        found_b, codes_b = eager.lookup_batch(probe)
        np.testing.assert_array_equal(found_a, found_b)
        np.testing.assert_array_equal(codes_a["v"][found_a],
                                      codes_b["v"][found_b])

    def test_validation(self):
        with pytest.raises(ValueError):
            AuxiliaryTable(("v",), auto_compact_rows=0)

    def test_compaction_shrinks_overlay_heavy_footprint(self):
        aux = fresh_aux(auto_compact_rows=10_000)
        keys = np.arange(1000, 3000, dtype=np.int64)
        aux.add_batch(keys, {"v": keys % 5})
        before = aux.stored_bytes()
        aux.compact()
        # Compressed partitions beat the pickled dict overlay.
        assert aux.stored_bytes() < before


class TestDeepMappingCompactionConfig:
    def test_config_threads_through(self):
        table = synthetic.multi_column(300, "low")
        dm = DeepMapping.fit(table, fast_config(
            epochs=2, aux_auto_compact_rows=7))
        assert dm.shards[0].aux.auto_compact_rows == 7

    def test_inserts_fold_into_partitions(self):
        table = synthetic.multi_column(400, "low")
        dm = DeepMapping.fit(table, fast_config(
            epochs=2, key_headroom_fraction=1.0, aux_auto_compact_rows=50))
        batch = synthetic.insert_batch(table, 200, "low")
        dm.insert(batch)
        # 200 > 50 threshold: the overlay was folded at least once.
        assert len(dm.shards[0].aux._overlay) < 200
        result = dm.lookup({"key": batch.column("key")})
        assert result.found.all()
