"""Existence index ``V_exist`` over the flattened key domain.

One bit per possible key (paper Sec. IV-B): set bits mark keys present in
the data.  This is what lets DeepMapping refuse to hallucinate values for
keys it has never seen — the model would happily emit a prediction for any
input, so every lookup is masked through this vector first (Algorithm 1,
line 5).  Offline, the vector is stored compressed; the paper notes the
compressed size depends on the randomness of the set bits (Sec. V-C).

An index covers the flat keys ``[0, domain_size)`` of a model's whole
key domain (a sharded store holds one for all its shards); keys outside
it test absent, and :func:`cover` grows its upper end.

Its live count is kept as bits flip, so :meth:`~ExistenceIndex.count`
(and ``len`` of the structure that holds it) is O(1): ``set_batch`` /
``clear_batch`` return and count only the keys they actually flipped
(a key repeated in a batch counts once), and the one full recount runs
at open, in :func:`existence_from_state`.

Two implementations share the interface:

- :class:`ExistenceIndex` — the paper's dense bit vector, O(domain) bits;
- :class:`SparseExistenceIndex` — a sorted key array for domains much
  larger than the key count (e.g. wide composite keys), O(n) words, still
  exact (a Bloom filter would reintroduce hallucinations).

:func:`make_existence_index` picks automatically, and :func:`cover`
applies the same rule when the domain grows.

``to_state`` / :func:`existence_from_state` is how either is persisted:
a small dict whose arrays stay first-class, so the RZC2 container
exports them as out-of-band segments and a ``writable=False`` cold open
wraps the mmap bytes directly — no decompression, no copy.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..storage.bitvector import BitVector

__all__ = [
    "ExistenceIndex",
    "SparseExistenceIndex",
    "make_existence_index",
    "cover",
    "existence_from_state",
]

#: Use the dense bit vector while domain_size <= this multiple of the
#: expected key count (the break-even between 1 bit/domain-slot and
#: ~64 bits/key, with margin for insertions).
_DENSE_DOMAIN_FACTOR = 64
#: Never allocate a dense vector above this domain size (512 MB of bits).
_MAX_DENSE_DOMAIN = 1 << 32


class ExistenceIndex:
    """Bit-vector existence filter over the flat keys
    ``[0, domain_size)``."""

    def __init__(self, domain_size: int):
        if domain_size <= 0:
            raise ValueError("domain_size must be positive")
        self._bits = BitVector(domain_size)
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        """Number of addressable keys."""
        return len(self._bits)

    def set_batch(self, flat_keys: np.ndarray) -> int:
        """Mark keys as existing; returns how many were not before."""
        return self._flip(flat_keys, True)

    def clear_batch(self, flat_keys: np.ndarray) -> int:
        """Mark keys as deleted; returns how many were live."""
        return self._flip(flat_keys, False)

    def _flip(self, flat_keys, value: bool) -> int:
        idx = np.asarray(flat_keys, dtype=np.int64)
        flips = idx[self._bits.test_many(idx) != value]
        self._bits.set_many(idx, value)
        flipped = int(np.unique(flips).size)
        self._count += flipped if value else -flipped
        return flipped

    def test_batch(self, flat_keys: np.ndarray) -> np.ndarray:
        """Boolean existence mask for the queried keys (False outside
        the domain)."""
        return self._bits.test_many(np.asarray(flat_keys, dtype=np.int64))

    def count(self) -> int:
        """Number of live keys (kept as bits flip: O(1))."""
        return self._count

    def existing_keys(self) -> np.ndarray:
        """All live flat keys, ascending (used by rebuild/scan paths)."""
        return np.flatnonzero(self._bits.to_bools()).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """In-memory packed size."""
        return self._bits.nbytes

    def stored_bytes(self) -> int:
        """Offline (compressed) size — the ``size(V_exist)`` term of Eq. 1."""
        return len(zlib.compress(self._bits.to_bytes(), 1))

    def to_state(self) -> dict:
        """Array-first state for the zero-copy container.

        The packed bit buffer rides as a plain ``uint8`` array (shared,
        not copied here — the container snapshots it at pack time), so a
        read-only open wraps the mmap bytes with zero decompression.
        """
        return {"kind": "dense", "size": self.domain_size,
                "bits": self._bits.packed}

    def __repr__(self) -> str:
        return (f"ExistenceIndex(domain={self.domain_size}, "
                f"live={self.count()})")


class SparseExistenceIndex:
    """Exact existence filter as a sorted array of live flat keys.

    Drop-in for :class:`ExistenceIndex` when ``domain_size`` dwarfs the
    key count: membership is a binary search instead of a bit probe, and
    the footprint is O(live keys) instead of O(domain).
    """

    def __init__(self, domain_size: int):
        if domain_size <= 0:
            raise ValueError("domain_size must be positive")
        self._domain = int(domain_size)
        #: Live flat keys, ascending.
        self._keys = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        """Number of addressable keys."""
        return self._domain

    def set_batch(self, flat_keys: np.ndarray) -> int:
        """Mark keys as existing; returns how many were not before.  The
        new keys go in where they sort: one insert, no re-sort."""
        batch, pos, live = self._probe(flat_keys)
        if live.all():
            return 0
        self._keys = np.insert(self._keys, pos[~live], batch[~live])
        return int((~live).sum())

    def clear_batch(self, flat_keys: np.ndarray) -> int:
        """Mark keys as deleted; returns how many were live."""
        _, pos, live = self._probe(flat_keys)
        if not live.any():
            return 0
        self._keys = np.delete(self._keys, pos[live])
        return int(live.sum())

    def _probe(self, flat_keys):
        """``(batch, pos, live)``: the batch's distinct keys ascending,
        where each sorts among the live keys, and which of them are
        live."""
        batch = np.unique(self._checked(flat_keys))
        pos = np.searchsorted(self._keys, batch)
        live = np.zeros(batch.size, dtype=bool)
        inside = pos < self._keys.size
        live[inside] = self._keys[pos[inside]] == batch[inside]
        return batch, pos, live

    def test_batch(self, flat_keys: np.ndarray) -> np.ndarray:
        """Boolean existence mask for the queried keys (False outside
        the domain)."""
        flat_keys = np.asarray(flat_keys, dtype=np.int64)
        if self._keys.size == 0:
            return np.zeros(flat_keys.size, dtype=bool)
        pos = np.searchsorted(self._keys, flat_keys)
        pos = np.minimum(pos, self._keys.size - 1)
        return self._keys[pos] == flat_keys

    def count(self) -> int:
        """Number of live keys."""
        return int(self._keys.size)

    def existing_keys(self) -> np.ndarray:
        """All live flat keys, ascending."""
        return self._keys.copy()

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """In-memory size of the key array."""
        return int(self._keys.nbytes)

    def stored_bytes(self) -> int:
        """Offline size: delta-encoded, compressed keys — the
        ``size(V_exist)`` term of Eq. 1, accounted like the dense
        variant's (compressed content only)."""
        deltas = np.diff(self._keys, prepend=np.int64(0))
        return len(zlib.compress(deltas.tobytes(), 1))

    def to_state(self) -> dict:
        """Array-first state for the zero-copy container (keys stay a
        first-class ``int64`` array; no delta coding, no compression)."""
        return {"kind": "sparse", "domain": self._domain,
                "keys": self._keys}

    def _checked(self, flat_keys) -> np.ndarray:
        arr = np.asarray(flat_keys, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self._domain):
            raise IndexError("flat key outside the domain")
        return arr

    def __repr__(self) -> str:
        return (f"SparseExistenceIndex(domain={self._domain}, "
                f"live={self.count()})")


def _dense_fits(domain_size: int, expected_keys: int) -> bool:
    """True when a dense vector of ``domain_size`` bits is affordable and
    economic for ``expected_keys`` live keys."""
    return (domain_size <= _MAX_DENSE_DOMAIN
            and domain_size <= max(expected_keys, 1) * _DENSE_DOMAIN_FACTOR)


def make_existence_index(domain_size: int, expected_keys: int):
    """Pick dense vs. sparse for a domain of ``domain_size`` keys and its
    expected population."""
    if _dense_fits(domain_size, expected_keys):
        return ExistenceIndex(domain_size)
    return SparseExistenceIndex(domain_size)


def cover(index, end: int, expected_keys: int):
    """``index`` grown to end at flat key ``end`` at least, for
    ``expected_keys`` live keys, by the rule of
    :func:`make_existence_index`: a dense index that rule would not
    build dense comes back sparse over the same keys (one key far past
    the max must not cost a bit per key of the gap)."""
    size = int(end)
    if size <= index.domain_size:
        return index
    if isinstance(index, SparseExistenceIndex):
        index._domain = size
        return index
    if _dense_fits(size, expected_keys):
        index._bits.resize(size)
        return index
    sparse = SparseExistenceIndex(size)
    sparse.set_batch(index.existing_keys())
    return sparse


def existence_from_state(state: dict):
    """Restore whichever index ``to_state`` produced — **without copying**.

    The arrays are adopted as-is: under a ``writable=False`` open they
    are read-only views straight into the container mmap (mutation
    raises, per the store contract); under a writable load the container
    hands over private bytearray-backed buffers, so in-place updates
    work exactly as before.
    """
    kind = state["kind"]
    if kind == "sparse":
        index = SparseExistenceIndex(int(state["domain"]))
        index._keys = np.asarray(state["keys"], dtype=np.int64)
        return index
    if kind != "dense":
        raise ValueError(f"unknown existence-index kind {kind!r}")
    index = ExistenceIndex.__new__(ExistenceIndex)
    index._bits = BitVector.wrap(int(state["size"]), state["bits"])
    index._count = index._bits.count()  # the one full recount
    return index
