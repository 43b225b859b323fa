"""Unit and property tests for repro.storage.bitvector.BitVector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BitVector


class TestConstruction:
    def test_new_vector_is_all_zero(self):
        vec = BitVector(100)
        assert len(vec) == 100
        assert vec.count() == 0

    def test_filled_vector_is_all_one(self):
        vec = BitVector(100, fill=True)
        assert vec.count() == 100

    def test_filled_vector_masks_tail_bits(self):
        # 13 bits => final byte has 3 used bits; unused bits must stay zero.
        vec = BitVector(13, fill=True)
        assert vec.count() == 13

    def test_zero_size_vector(self):
        vec = BitVector(0)
        assert len(vec) == 0
        assert vec.count() == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BitVector(-1)

    def test_from_indices(self):
        vec = BitVector.from_indices([0, 5, 9], size=10)
        assert vec.test(0) and vec.test(5) and vec.test(9)
        assert vec.count() == 3

    def test_from_bools(self):
        vec = BitVector.from_bools([True, False, True, True])
        assert vec.to_bools().tolist() == [True, False, True, True]


class TestScalarAccess:
    def test_set_and_test(self):
        vec = BitVector(16)
        vec.set(7)
        assert vec.test(7)
        assert not vec.test(6)

    def test_clear(self):
        vec = BitVector(16, fill=True)
        vec.set(3, False)
        assert not vec.test(3)
        assert vec.count() == 15

    def test_getitem_setitem(self):
        vec = BitVector(8)
        vec[2] = True
        assert vec[2]
        vec[2] = False
        assert not vec[2]

    def test_out_of_range_raises(self):
        vec = BitVector(8)
        with pytest.raises(IndexError):
            vec.test(8)
        with pytest.raises(IndexError):
            vec.set(-1)


class TestBatchAccess:
    def test_set_many_then_test_many(self):
        vec = BitVector(1000)
        idx = np.array([1, 10, 999, 500])
        vec.set_many(idx)
        assert vec.test_many(idx).all()
        assert not vec.test_many([0, 2, 998]).any()

    def test_set_many_with_duplicates(self):
        vec = BitVector(10)
        vec.set_many([3, 3, 3, 7])
        assert vec.count() == 2

    def test_clear_many(self):
        vec = BitVector(10, fill=True)
        vec.set_many([2, 4, 6], value=False)
        assert vec.count() == 7
        assert not vec.test_many([2, 4, 6]).any()

    def test_clear_many_with_duplicates_in_same_byte(self):
        vec = BitVector(8, fill=True)
        vec.set_many([0, 0, 1, 1], value=False)
        assert vec.to_bools().tolist() == [False, False] + [True] * 6

    def test_empty_batch_is_noop(self):
        vec = BitVector(10)
        vec.set_many(np.empty(0, dtype=np.int64))
        assert vec.count() == 0

    def test_batch_set_out_of_range_raises_and_tests_false(self):
        vec = BitVector(10, fill=True)
        with pytest.raises(IndexError):
            vec.set_many([10])
        assert vec.test_many([-1, 10, 2**40, 9]).tolist() == [
            False, False, False, True]


class TestResize:
    def test_grow_preserves_bits(self):
        vec = BitVector.from_indices([0, 9], size=10)
        vec.resize(100)
        assert len(vec) == 100
        assert vec.test(0) and vec.test(9)
        assert vec.count() == 2

    def test_shrink_drops_tail(self):
        vec = BitVector(16, fill=True)
        vec.resize(5)
        assert len(vec) == 5
        assert vec.count() == 5


class TestSerialization:
    def test_roundtrip(self):
        vec = BitVector.from_indices([3, 77, 1000], size=1024)
        clone = BitVector.wrap(len(vec), vec.packed.copy())
        assert clone == vec

    def test_nbytes_is_packed(self):
        assert BitVector(8).nbytes == 1
        assert BitVector(9).nbytes == 2
        assert BitVector(0).nbytes == 0

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            BitVector.wrap(64, BitVector(64).packed[:-1])

    def test_copy_is_independent(self):
        vec = BitVector(8)
        clone = vec.copy()
        clone.set(0)
        assert not vec.test(0)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_bitvector_matches_python_set_model(size, data):
    """Property: a BitVector behaves exactly like a set of indices."""
    vec = BitVector(size)
    model = set()
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["set", "clear"]),
                st.integers(min_value=0, max_value=size - 1),
            ),
            max_size=40,
        )
    )
    for op, idx in ops:
        if op == "set":
            vec.set(idx)
            model.add(idx)
        else:
            vec.set(idx, False)
            model.discard(idx)
    assert vec.count() == len(model)
    expect = np.zeros(size, dtype=bool)
    expect[list(model)] = True
    assert np.array_equal(vec.to_bools(), expect)


@settings(max_examples=40, deadline=None)
@given(
    indices=st.lists(st.integers(min_value=0, max_value=499), max_size=60),
)
def test_bitvector_serialization_roundtrip_property(indices):
    vec = BitVector.from_indices(indices, size=500)
    assert BitVector.wrap(len(vec), vec.packed.copy()) == vec
