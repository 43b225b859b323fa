"""Tests for key/value encoders and the decode map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CompositeKeyCodec, DecodeMap, KeyEncoder, ValueEncoder


def one_hot_digits(enc, keys, base_index=0):
    """Digit matrix (n, width) of one base, most significant first, read
    back off ``enc.encode``'s one-hot blocks."""
    offset = sum(w * b for w, b in zip(enc.widths[:base_index], enc.bases))
    base, width = enc.bases[base_index], enc.widths[base_index]
    block = enc.encode(keys)[:, offset: offset + width * base]
    return block.reshape(-1, width, base).argmax(axis=2)


class TestCompositeKeyCodec:
    def test_single_column_flatten_roundtrip(self):
        codec = CompositeKeyCodec(["k"]).fit({"k": np.array([5, 9, 7])})
        flat = codec.flatten({"k": np.array([5, 9, 7])})
        assert flat.tolist() == [0, 4, 2]
        back = codec.unflatten(flat)
        assert back["k"].tolist() == [5, 9, 7]

    def test_composite_flatten_is_bijective(self):
        cols = {
            "a": np.repeat(np.arange(10), 5),
            "b": np.tile(np.arange(5), 10),
        }
        codec = CompositeKeyCodec(["a", "b"]).fit(cols)
        flat = codec.flatten(cols)
        assert np.unique(flat).size == 50
        back = codec.unflatten(flat)
        assert np.array_equal(back["a"], cols["a"])
        assert np.array_equal(back["b"], cols["b"])

    def test_domain_size(self):
        cols = {"a": np.array([0, 9]), "b": np.array([0, 4])}
        codec = CompositeKeyCodec(["a", "b"]).fit(cols)
        assert codec.domain_size == 50

    def test_headroom_extends_domain(self):
        codec = CompositeKeyCodec(["k"]).fit({"k": np.array([0, 9])}, headroom=10)
        assert codec.domain_size == 20
        codec.flatten({"k": np.array([15])})  # inside the widened domain

    def test_out_of_domain_rejected(self):
        codec = CompositeKeyCodec(["k"]).fit({"k": np.array([0, 9])})
        with pytest.raises(ValueError):
            codec.flatten({"k": np.array([10])})

    def test_oversized_domain_rejected(self):
        cols = {"a": np.array([0, 2**21]), "b": np.array([0, 2**21])}
        with pytest.raises(ValueError, match="domain"):
            CompositeKeyCodec(["a", "b"]).fit(cols)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CompositeKeyCodec(["k"]).flatten({"k": np.array([1])})

    def test_state_roundtrip(self):
        cols = {"a": np.array([3, 10]), "b": np.array([0, 4])}
        codec = CompositeKeyCodec(["a", "b"]).fit(cols)
        clone = CompositeKeyCodec.from_state(codec.to_state())
        probe = {"a": np.array([7]), "b": np.array([2])}
        assert clone.flatten(probe) == codec.flatten(probe)

    def test_empty_key_names_rejected(self):
        with pytest.raises(ValueError):
            CompositeKeyCodec([])


class TestKeyEncoder:
    def test_fit_width(self):
        assert KeyEncoder(base=10).fit(0).widths == (1,)
        assert KeyEncoder(base=10).fit(9).widths == (1,)
        assert KeyEncoder(base=10).fit(10).widths == (2,)
        assert KeyEncoder(base=2).fit(7).widths == (3,)
        assert KeyEncoder(base=2).fit(8).widths == (4,)

    def test_input_dim(self):
        enc = KeyEncoder(base=10).fit(999)
        assert enc.input_dim == 30

    def test_one_hot_structure(self):
        enc = KeyEncoder(base=10).fit(99)
        out = enc.encode([42])
        assert out.shape == (1, 20)
        assert out.sum() == 2.0  # one hot per digit
        # Digit blocks: position 0 = most significant.
        assert out[0, 0 * 10 + 4] == 1.0
        assert out[0, 1 * 10 + 2] == 1.0

    def test_digits(self):
        enc = KeyEncoder(base=10).fit(999)
        assert one_hot_digits(enc, [305]).tolist() == [[3, 0, 5]]

    def test_distinct_keys_distinct_encodings(self):
        enc = KeyEncoder(base=10).fit(999)
        encoded = enc.encode(np.arange(1000))
        assert np.unique(encoded, axis=0).shape[0] == 1000

    def test_negative_key_rejected(self):
        enc = KeyEncoder().fit(10)
        with pytest.raises(ValueError):
            enc.encode([-1])

    def test_base_validation(self):
        with pytest.raises(ValueError):
            KeyEncoder(base=1)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            KeyEncoder().encode([1])

    def test_state_roundtrip(self):
        enc = KeyEncoder(base=4).fit(100)
        clone = KeyEncoder.from_state(enc.to_state())
        np.testing.assert_array_equal(clone.encode([37]), enc.encode([37]))


class TestValueEncoder:
    def test_roundtrip_strings(self):
        enc = ValueEncoder("status").fit(np.array(["O", "F", "P", "F"]))
        codes = enc.encode(np.array(["P", "F"]))
        assert enc.decode(codes).tolist() == ["P", "F"]
        assert enc.cardinality == 3

    def test_out_of_vocab_rejected(self):
        enc = ValueEncoder("x").fit(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            enc.encode(np.array([4]))

    def test_try_encode_flags_oov(self):
        enc = ValueEncoder("x").fit(np.array([10, 20]))
        codes, ok = enc.try_encode(np.array([10, 15, 20]))
        assert ok.tolist() == [True, False, True]
        assert codes[0] == 0 and codes[2] == 1

    def test_decode_range_checked(self):
        enc = ValueEncoder("x").fit(np.array([1, 2]))
        with pytest.raises(ValueError):
            enc.decode(np.array([2]))

    def test_state_roundtrip(self):
        enc = ValueEncoder("x").fit(np.array(["a", "b", "c"]))
        clone = ValueEncoder.from_state(enc.to_state())
        assert clone.decode(np.array([1]))[0] == "b"

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ValueEncoder("x").encode(np.array([1]))


class TestDecodeMap:
    def test_fit_encode_decode(self):
        cols = {
            "a": np.array(["x", "y", "x"]),
            "b": np.array([5, 6, 5]),
        }
        fdecode = DecodeMap.fit(cols)
        codes = fdecode.encode(cols)
        back = fdecode.decode(codes)
        assert back["a"].tolist() == ["x", "y", "x"]
        assert back["b"].tolist() == [5, 6, 5]

    def test_columns_sorted(self):
        fdecode = DecodeMap.fit({"b": np.array([1]), "a": np.array([2])})
        assert fdecode.columns == ("a", "b")

    def test_cardinalities(self):
        fdecode = DecodeMap.fit({"a": np.array(["x", "y", "z"])})
        assert fdecode.cardinalities() == {"a": 3}

    def test_nbytes_positive(self):
        fdecode = DecodeMap.fit({"a": np.array(["x"])})
        assert fdecode.nbytes > 0

    def test_state_roundtrip(self):
        fdecode = DecodeMap.fit({"a": np.array(["x", "y"])})
        clone = DecodeMap.from_state(fdecode.to_state())
        assert clone.decode({"a": np.array([1])})["a"][0] == "y"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DecodeMap({})


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                     max_size=100))
def test_key_encoder_digits_invert_property(keys):
    """Property: the one-hot digit blocks reconstruct the key."""
    enc = KeyEncoder(base=10).fit(max(keys))
    digits = one_hot_digits(enc, keys)
    powers = 10 ** np.arange(enc.widths[0] - 1, -1, -1, dtype=np.int64)
    np.testing.assert_array_equal(digits @ powers, np.array(keys))


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.integers(min_value=-100, max_value=100)),
        min_size=1, max_size=100,
    )
)
def test_value_encoder_roundtrip_property(values):
    arr = np.array(values)
    enc = ValueEncoder("v").fit(arr)
    np.testing.assert_array_equal(enc.decode(enc.encode(arr)), arr)
