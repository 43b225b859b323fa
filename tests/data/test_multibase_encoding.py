"""Tests for the multi-base KeyEncoder extension."""

import numpy as np
import pytest

from repro.data import KeyEncoder

from .test_encoding import one_hot_digits


class TestMultiBase:
    def test_input_dim_sums_bases(self):
        enc = KeyEncoder(base=(10, 7)).fit(999)
        # base 10 needs 3 digits (30 features); base 7 needs 4 (28).
        assert enc.widths == (3, 4)
        assert enc.input_dim == 3 * 10 + 4 * 7

    def test_single_base_unchanged(self):
        single = KeyEncoder(base=10).fit(999)
        multi = KeyEncoder(base=(10,)).fit(999)
        np.testing.assert_array_equal(single.encode([123]),
                                      multi.encode([123]))

    def test_one_hot_per_digit_per_base(self):
        enc = KeyEncoder(base=(10, 7, 4)).fit(100)
        out = enc.encode([42])
        assert out.sum() == sum(enc.widths)

    def test_residues_directly_readable(self):
        """The point of the extension: k % 7 is the last base-7 digit."""
        enc = KeyEncoder(base=(10, 7)).fit(10_000)
        keys = np.arange(500)
        digits = one_hot_digits(enc, keys, base_index=1)
        np.testing.assert_array_equal(digits[:, -1], keys % 7)

    def test_distinct_keys_distinct_encodings(self):
        enc = KeyEncoder(base=(7, 4)).fit(499)
        encoded = enc.encode(np.arange(500))
        assert np.unique(encoded, axis=0).shape[0] == 500

    def test_state_roundtrip(self):
        enc = KeyEncoder(base=(10, 7, 4)).fit(12345)
        clone = KeyEncoder.from_state(enc.to_state())
        np.testing.assert_array_equal(clone.encode([777]), enc.encode([777]))

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyEncoder(base=(10, 1))
        with pytest.raises(ValueError):
            KeyEncoder(base=())


class TestLearnability:
    def test_cross_product_table_becomes_learnable(self):
        """Integration: mixed-radix columns unlearnable from base-10
        features become memorizable with co-prime bases."""
        from repro.core import DeepMapping, DeepMappingConfig
        from repro.data import ColumnTable

        keys = np.arange(2000, dtype=np.int64)
        table = ColumnTable(
            {"key": keys, "mod7": keys % 7, "mod4": (keys // 7) % 4},
            key=("key",),
        )
        # Short training: brute-force memorization is off the table, so
        # the gap isolates what the encoding makes *learnable*.
        kwargs = dict(epochs=60, batch_size=256, shared_sizes=(32,),
                      private_sizes=(16,), learning_rate=0.003, tol=1e-6)
        single = DeepMapping.fit(table, DeepMappingConfig(key_base=10,
                                                          **kwargs))
        multi = DeepMapping.fit(table, DeepMappingConfig(key_base=(10, 7, 4),
                                                         **kwargs))
        assert (multi.size_report().memorized_fraction
                > single.size_report().memorized_fraction + 0.15)
        # Both stay lossless regardless.
        assert multi.lookup({"key": keys}).found.all()
        assert single.lookup({"key": keys}).found.all()
