"""Packed bit vector used for the DeepMapping existence index ``V_exist``.

The paper uses the ``bitarray`` package; that package is unavailable offline,
so this module provides an equivalent dynamic bit array backed by a numpy
``uint8`` buffer.  All batch operations (:meth:`BitVector.set_many`,
:meth:`BitVector.test_many`) are vectorized because existence checks run once
per query batch in Algorithm 1 of the paper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitVector"]


class BitVector:
    """A fixed-length (but growable) array of bits.

    Bits are stored packed, eight per byte, least-significant bit first.

    Parameters
    ----------
    size:
        Number of addressable bits.  Bits are initialised to ``fill``.
    fill:
        Initial value for every bit.
    """

    __slots__ = ("_bits", "_size")

    def __init__(self, size: int, fill: bool = False):
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self._size = int(size)
        nbytes = (self._size + 7) // 8
        value = 0xFF if fill else 0x00
        self._bits = np.full(nbytes, value, dtype=np.uint8)
        if fill:
            self._mask_tail()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_indices(cls, indices, size: int) -> "BitVector":
        """Build a vector of ``size`` bits with exactly ``indices`` set."""
        vec = cls(size)
        vec.set_many(np.asarray(indices, dtype=np.int64))
        return vec

    @classmethod
    def from_bools(cls, flags) -> "BitVector":
        """Build a vector from an iterable/array of booleans."""
        arr = np.asarray(flags, dtype=bool)
        vec = cls(arr.size)
        vec.set_many(np.flatnonzero(arr))
        return vec

    @classmethod
    def wrap(cls, size: int, bits) -> "BitVector":
        """Adopt an existing packed ``uint8`` buffer **without copying**.

        The zero-copy payload loader hands the vector an mmap-backed
        (read-only) or bytearray-backed (writable) buffer straight out
        of the container.  A read-only buffer yields a read-only vector:
        mutating calls raise, which is exactly the ``writable=False``
        store contract.  The caller guarantees the tail bits beyond
        ``size`` are zero (true for any buffer produced by this class).
        """
        arr = np.asarray(bits, dtype=np.uint8)
        size = int(size)
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if arr.ndim != 1 or arr.size != (size + 7) // 8:
            raise ValueError(
                f"packed buffer of {arr.size} byte(s) does not match "
                f"{size} bit(s)")
        vec = cls.__new__(cls)
        vec._size = size
        vec._bits = arr
        return vec

    # ------------------------------------------------------------------
    # Scalar access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def test(self, index: int) -> bool:
        """Return the bit at ``index``."""
        self._check_index(index)
        return bool((self._bits[index >> 3] >> (index & 7)) & 1)

    def set(self, index: int, value: bool = True) -> None:
        """Set (or clear, when ``value`` is False) the bit at ``index``."""
        self._check_index(index)
        mask = np.uint8(1 << (index & 7))
        if value:
            self._bits[index >> 3] |= mask
        else:
            self._bits[index >> 3] &= np.uint8(~mask & 0xFF)

    __getitem__ = test

    def __setitem__(self, index: int, value: bool) -> None:
        self.set(index, bool(value))

    # ------------------------------------------------------------------
    # Batch access
    # ------------------------------------------------------------------
    def test_many(self, indices) -> np.ndarray:
        """Vectorized :meth:`test`; returns a boolean array in which an
        index outside ``[0, len)`` tests False."""
        idx = np.asarray(indices, dtype=np.int64)
        inside = idx.view(np.uint64) < self._size  # negatives wrap high
        if not inside.all():
            return self.test_many(np.where(inside, idx, 0)) & inside
        return ((self._bits[idx >> 3] >> (idx & 7).astype(np.uint8))
                & 1).astype(bool)

    def set_many(self, indices, value: bool = True) -> None:
        """Vectorized :meth:`set`.  Duplicate indices are permitted."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self._size:
            raise IndexError("bit index out of range")
        masks = np.left_shift(np.uint8(1), (idx & 7).astype(np.uint8))
        if value:
            np.bitwise_or.at(self._bits, idx >> 3, masks)
        else:
            np.bitwise_and.at(self._bits, idx >> 3, np.invert(masks))

    # ------------------------------------------------------------------
    # Whole-vector operations
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of set bits."""
        return int(np.unpackbits(self._bits, bitorder="little").sum())

    def to_bools(self) -> np.ndarray:
        """Expand to a boolean array of length ``len(self)``."""
        return np.unpackbits(self._bits, bitorder="little")[: self._size].astype(bool)

    def resize(self, new_size: int) -> None:
        """Grow or shrink the vector; new bits are zero."""
        if new_size < 0:
            raise ValueError("new_size must be non-negative")
        new_nbytes = (new_size + 7) // 8
        if new_nbytes > self._bits.size:
            self._bits = np.concatenate(
                [self._bits, np.zeros(new_nbytes - self._bits.size, dtype=np.uint8)]
            )
        else:
            self._bits = self._bits[:new_nbytes].copy()
        self._size = int(new_size)
        self._mask_tail()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Packed storage footprint in bytes (excluding Python overhead)."""
        return int(self._bits.nbytes)

    @property
    def packed(self) -> np.ndarray:
        """The raw packed ``uint8`` buffer (shared with the vector, not a
        copy) — what :meth:`wrap` accepts back."""
        return self._bits

    def to_bytes(self) -> bytes:
        """``8-byte little-endian length + packed payload`` — the bytes
        :meth:`~repro.core.exist_index.ExistenceIndex.stored_bytes`
        compresses and counts."""
        return self._size.to_bytes(8, "little") + self._bits.tobytes()

    def copy(self) -> "BitVector":
        """Deep copy."""
        vec = BitVector(self._size)
        vec._bits = self._bits.copy()
        return vec

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._size == other._size and bool(np.array_equal(self._bits, other._bits))

    def __repr__(self) -> str:
        return f"BitVector(size={self._size}, set={self.count()})"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"bit index {index} out of range [0, {self._size})")

    def _mask_tail(self) -> None:
        """Zero the unused bits of the final byte so counts stay exact."""
        tail = self._size & 7
        if tail and self._bits.size:
            self._bits[-1] &= np.uint8((1 << tail) - 1)
