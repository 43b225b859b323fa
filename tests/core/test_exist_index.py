"""Tests for the existence index V_exist."""

import numpy as np
import pytest

from repro.core import ExistenceIndex, existence_from_state


class TestBasics:
    def test_initially_empty(self):
        index = ExistenceIndex(100)
        assert index.count() == 0
        assert not index.test_batch(np.arange(100)).any()

    def test_set_and_test(self):
        index = ExistenceIndex(100)
        index.set_batch(np.array([3, 50, 99]))
        assert index.test_batch(np.array([3, 50, 99])).all()
        assert not index.test_batch(np.array([4, 51])).any()
        assert index.count() == 3

    def test_clear(self):
        index = ExistenceIndex(100)
        index.set_batch(np.arange(10))
        index.clear_batch(np.array([0, 5]))
        assert index.count() == 8
        assert not index.test_batch(np.array([0, 5])).any()

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ExistenceIndex(0)

    def test_existing_keys_sorted(self):
        index = ExistenceIndex(100)
        index.set_batch(np.array([42, 7, 99]))
        assert index.existing_keys().tolist() == [7, 42, 99]


class TestSerialization:
    def test_roundtrip(self):
        index = ExistenceIndex(1000)
        index.set_batch(np.array([1, 500, 999]))
        clone = existence_from_state(index.to_state())
        assert clone.count() == 3
        assert clone.domain_size == 1000
        assert clone.test_batch(np.array([500]))[0]

    def test_stored_bytes_compressed(self):
        # A mostly-empty vector compresses well below its packed size.
        index = ExistenceIndex(1_000_000)
        index.set_batch(np.arange(100))
        assert index.stored_bytes() < index.nbytes / 10

    def test_random_bits_compress_worse_than_clustered(self):
        """The paper notes V_exist decompression randomness (Sec. V-C):
        scattered bits are less compressible than runs."""
        rng = np.random.default_rng(4)
        clustered = ExistenceIndex(80_000)
        clustered.set_batch(np.arange(40_000))
        scattered = ExistenceIndex(80_000)
        scattered.set_batch(rng.choice(80_000, size=40_000, replace=False))
        assert clustered.stored_bytes() < scattered.stored_bytes()
