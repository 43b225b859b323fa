"""Tests for repro.storage.serializer: pickling and dictionary encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    deserialize_block,
    dictionary_decode,
    dictionary_encode,
    minimal_int_dtype,
    serialize_block,
    serialized_size,
)


class TestSerializeBlock:
    def test_roundtrip_dict_of_arrays(self):
        block = {"a": np.arange(10), "b": np.array(["x", "y"] * 5)}
        out = deserialize_block(serialize_block(block))
        assert np.array_equal(out["a"], block["a"])
        assert np.array_equal(out["b"], block["b"])

    def test_serialized_size_matches_len(self):
        block = {"a": np.arange(100)}
        assert serialized_size(block) == len(serialize_block(block))

    def test_serialized_size_ignores_the_writeable_flag(self):
        # A store opened read-only holds views into its mapped payload;
        # its Eq. 1 sizes must be those of the same arrays owned.
        owned = {"w": np.arange(64, dtype=np.float16),
                 "vocab": np.array(["A", "B", "C"])}
        views = {}
        for name, array in owned.items():
            view = array.view()
            view.flags.writeable = False
            views[name] = view
        assert serialized_size(views) == serialized_size(owned)


class TestMinimalIntDtype:
    @pytest.mark.parametrize(
        "max_value,expected",
        [(0, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16),
         (65536, np.uint32), (2**32 - 1, np.uint32), (2**32, np.uint64)],
    )
    def test_boundaries(self, max_value, expected):
        assert minimal_int_dtype(max_value) == np.dtype(expected)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            minimal_int_dtype(-1)


class TestDictionaryEncoding:
    def test_roundtrip_low_cardinality(self):
        cols = {"status": np.array(["OK", "FAIL", "OK", "OK", "FAIL"] * 100)}
        decoded = dictionary_decode(dictionary_encode(cols))
        assert np.array_equal(decoded["status"], cols["status"])

    def test_codes_use_minimal_dtype(self):
        cols = {"c": np.array([0, 1, 2] * 100)}
        encoded = dictionary_encode(cols)
        assert encoded["columns"]["c"]["codes"].dtype == np.uint8

    def test_high_cardinality_column_kept_raw(self):
        cols = {"id": np.arange(1000)}
        encoded = dictionary_encode(cols)
        assert "raw" in encoded["columns"]["id"]
        decoded = dictionary_decode(encoded)
        assert np.array_equal(decoded["id"], cols["id"])

    def test_encoding_shrinks_repetitive_strings(self):
        # Fixed-width numpy strings store every row in full, so the
        # vocabulary + uint8 codes representation must win decisively.
        cols = {"s": np.array(["a-long-categorical-value", "another-value"] * 1000)}
        raw = serialized_size(cols)
        enc = serialized_size(dictionary_encode(cols))
        assert enc < raw / 5

    def test_decode_requires_encoded_block(self):
        with pytest.raises(ValueError):
            dictionary_decode({"columns": {}})

    def test_empty_columns(self):
        encoded = dictionary_encode({"x": np.empty(0, dtype=np.int64)})
        decoded = dictionary_decode(encoded)
        assert decoded["x"].size == 0


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=200)
)
def test_dictionary_roundtrip_property_ints(values):
    cols = {"v": np.array(values, dtype=np.int64)}
    decoded = dictionary_decode(dictionary_encode(cols))
    assert np.array_equal(decoded["v"], cols["v"])


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=200
    )
)
def test_dictionary_roundtrip_property_strings(values):
    cols = {"v": np.array(values, dtype=object)}
    decoded = dictionary_decode(dictionary_encode(cols))
    assert list(decoded["v"]) == values
