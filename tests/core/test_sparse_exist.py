"""Tests for the sparse existence index and the dense/sparse selector."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DeepMapping
from repro.core import (
    ExistenceIndex,
    SparseExistenceIndex,
    existence_from_state,
    make_existence_index,
)
from repro.data import ColumnTable

from .conftest import fast_config


class TestSparseIndex:
    def test_set_test_clear(self):
        index = SparseExistenceIndex(10**12)
        index.set_batch(np.array([5, 10**11, 7]))
        assert index.test_batch(np.array([5, 7, 10**11])).all()
        assert not index.test_batch(np.array([6])).any()
        index.clear_batch(np.array([7]))
        assert index.count() == 2

    def test_duplicates_collapse(self):
        index = SparseExistenceIndex(100)
        index.set_batch(np.array([3, 3, 3]))
        assert index.count() == 1

    def test_existing_keys_sorted(self):
        index = SparseExistenceIndex(1000)
        index.set_batch(np.array([500, 2, 77]))
        assert index.existing_keys().tolist() == [2, 77, 500]

    def test_out_of_domain_set_rejected_and_tested_absent(self):
        index = SparseExistenceIndex(10)
        with pytest.raises(IndexError):
            index.set_batch(np.array([10]))
        with pytest.raises(IndexError):
            index.set_batch(np.array([-1]))
        index.set_batch(np.array([0, 9]))
        np.testing.assert_array_equal(
            index.test_batch(np.array([-1, 0, 5, 9, 10])),
            [False, True, False, True, False])
        assert index.existing_keys().tolist() == [0, 9]

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            SparseExistenceIndex(0)

    def test_roundtrip(self):
        index = SparseExistenceIndex(10**10)
        index.set_batch(np.array([1, 10**9, 123456789]))
        clone = existence_from_state(index.to_state())
        assert clone.domain_size == 10**10
        assert clone.existing_keys().tolist() == index.existing_keys().tolist()

    def test_footprint_independent_of_domain(self):
        small_domain = SparseExistenceIndex(10**4)
        huge_domain = SparseExistenceIndex(10**12)
        keys = np.arange(0, 1000, dtype=np.int64)
        small_domain.set_batch(keys)
        huge_domain.set_batch(keys)
        assert huge_domain.nbytes == small_domain.nbytes


    def test_stored_bytes_excludes_tag_and_domain_header(self):
        """size(V_exist) counts the delta-coded, compressed keys only,
        mirroring the dense variant's accounting in Eq. 1."""
        index = SparseExistenceIndex(10**10)
        keys = np.array([1, 7, 10**9], dtype=np.int64)
        index.set_batch(keys)
        assert index.stored_bytes() == len(zlib.compress(
            np.diff(keys, prepend=np.int64(0)).tobytes(), 1))

    def test_stored_bytes_matches_dense_accounting_convention(self):
        """Dense counts len(compressed bits) and nothing else, so the
        Eq. 1 comparison between the two variants is apples-to-apples."""
        dense = ExistenceIndex(512)
        dense.set_batch(np.array([3, 400], dtype=np.int64))
        assert dense.stored_bytes() == len(zlib.compress(
            (512).to_bytes(8, "little") + dense.to_state()["bits"].tobytes(),
            1))


class TestSelector:
    def test_dense_for_dense_domains(self):
        assert isinstance(make_existence_index(1000, 500), ExistenceIndex)

    def test_sparse_for_sparse_domains(self):
        index = make_existence_index(10**9, 1000)
        assert isinstance(index, SparseExistenceIndex)

    def test_sparse_above_dense_cap(self):
        index = make_existence_index(2**40, 2**40 // 2)
        assert isinstance(index, SparseExistenceIndex)

    def test_load_dispatches_both(self):
        dense = ExistenceIndex(100)
        dense.set_batch(np.array([1, 2]))
        sparse = SparseExistenceIndex(10**9)
        sparse.set_batch(np.array([5]))
        assert isinstance(existence_from_state(dense.to_state()),
                          ExistenceIndex)
        assert isinstance(existence_from_state(sparse.to_state()),
                          SparseExistenceIndex)


class TestDeepMappingWithSparseKeys:
    def test_wide_composite_key_domain(self):
        """Keys scattered over a ~10^8 domain must not allocate 10^8 bits
        per... they get the sparse index and stay exact."""
        rng = np.random.default_rng(9)
        keys = np.sort(rng.choice(10**8, size=500, replace=False))
        table = ColumnTable(
            {"key": keys, "v": (keys % 5).astype(np.int64)}, key=("key",)
        )
        dm = DeepMapping.fit(table, fast_config(epochs=3))
        assert isinstance(dm.exist, SparseExistenceIndex)
        assert dm.lookup({"key": keys}).found.all()
        absent = keys[:-1] + 1
        absent = absent[~np.isin(absent, keys)]
        assert not dm.lookup({"key": absent}).found.any()

    def test_sparse_structure_save_load(self, tmp_path):
        rng = np.random.default_rng(10)
        keys = np.sort(rng.choice(10**7, size=300, replace=False))
        table = ColumnTable(
            {"key": keys, "v": (keys % 3).astype(np.int64)}, key=("key",)
        )
        dm = DeepMapping.fit(table, fast_config(epochs=2))
        path = str(tmp_path / "sparse.dm")
        dm.save(path)
        clone = DeepMapping.load(path)
        assert isinstance(clone.exist, SparseExistenceIndex)
        assert clone.lookup({"key": keys}).found.all()


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10**6), max_size=50,
                  unique=True),
    probe=st.lists(st.integers(min_value=0, max_value=10**6), max_size=30),
)
def test_sparse_matches_dense_semantics(keys, probe):
    """Property: sparse and dense indexes agree on every operation."""
    dense = ExistenceIndex(10**6 + 1)
    sparse = SparseExistenceIndex(10**6 + 1)
    arr = np.array(keys, dtype=np.int64)
    dense.set_batch(arr)
    sparse.set_batch(arr)
    probe_arr = np.array(probe, dtype=np.int64)
    np.testing.assert_array_equal(dense.test_batch(probe_arr),
                                  sparse.test_batch(probe_arr))
    assert dense.count() == sparse.count()
    np.testing.assert_array_equal(dense.existing_keys(),
                                  sparse.existing_keys())
