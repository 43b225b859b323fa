"""Negative filters: the manifest-level miss-pruning existence tier.

DeepMapping's headline win is that the existence tier (Sec. III-C)
short-circuits misses *inside* a shard before any inference — but in the
sharded store every miss key still pays routing, the (shard, key) sort,
and shard dispatch before that gate fires.  This module moves **one**
compact summary of the stored key set up into the *manifest*: a single
store-level filter over the union of every shard's keys, probed before
any routing (valid because key→shard placement is a pure function of
the key), so the read path can drop miss keys before any fan-out work
happens at all (see ``repro.shard.read_path._prune``).  Whatever it
lets through is rejected exactly by the owning shard's ``V_exist``.

:func:`build_store_filter` picks the structure: an exact
:class:`DenseNegativeFilter` bitmap when the key fingerprints span a
dense domain (the paper's existence bit-vector hoisted to the manifest
— no false positives at all), or a blocked Bloom :class:`NegativeFilter`
at ~8 bits/key otherwise (the classic construction as the guaranteed-
no-false-negative fallback; a tighter structure for non-dense domains —
the compressed/learned-filter line of work cited in PAPERS.md — would
join the ``kind`` registry of :func:`filter_from_json`, not stack a
second tier behind this one).

Blocked Bloom probes touch a single 64-bit word (``h1`` selects the
block, ``k`` bit positions come from disjoint 6-bit fields of ``h2``),
so a batched ``might_contain`` is a gather plus a few vectorized
shifts — no per-key loop, cache-friendly.  **No false negatives, by
construction**: every key inserted sets exactly the bits a later probe
tests.  Deletes never clear bits (the filter stays a superset of the
live key set — a deleted key may survive as a false positive until the
next rebuild, which only costs a dispatch the existence tier then
rejects); false positives only waste a shard dispatch.

Persistence is JSON-friendly (``to_json`` / :func:`filter_from_json`):
the word array rides in the shard manifest as ``base64(zlib(words))``
under a ``kind`` tag, <= 8 raw bits/key — inside the manifest's <= 2
bytes/key budget even when random bits do not compress (see
``docs/sharding.md``).  :func:`filter_from_json` is the one reader and
checks everything it is handed (parameters, word count, the decode): a
damaged filter is a ``ValueError`` at open, never a wrong answer later.

Key hashing (:func:`hash_key_columns`) mirrors the hash router's
column-mixing scheme — a splitmix64-style avalanche per column with a
per-column golden-ratio offset, XOR-combined and finalized — so one
hash pass serves any composite key under either routing strategy.  The
constants are duplicated from :mod:`repro.shard.router` rather than
imported: core must not depend on the shard layer.
"""

from __future__ import annotations

import base64
import operator
import zlib
from typing import Dict, Iterable, Tuple

import numpy as np

__all__ = ["NegativeFilter", "DenseNegativeFilter", "hash_key_columns",
           "build_store_filter", "filter_from_json"]

# splitmix64 finalizer constants — same family the shard router uses.
_MIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_2 = np.uint64(0xC4CEB9FE1A85EC53)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
#: Salt separating the in-word bit positions from the block index, so
#: the two probe coordinates are independent hashes of the same key.
_BIT_SALT = np.uint64(0xA5A5A5A5A5A5A5A5)

_SHIFT_33 = np.uint64(33)
_SHIFT_32 = np.uint64(32)
_ONE = np.uint64(1)
_BITS_MASK = np.uint64(63)
_U32_MASK = np.uint64(0xFFFFFFFF)


def _mix64(x: np.ndarray, copy: bool = True) -> np.ndarray:
    """Vectorized 64-bit avalanche (splitmix64 finalizer).

    ``copy=False`` mutates ``x`` in place — only for freshly created
    temporaries the caller owns.
    """
    x = np.array(x, dtype=np.uint64, copy=copy)
    x ^= x >> _SHIFT_33
    x *= _MIX_1
    x ^= x >> _SHIFT_33
    x *= _MIX_2
    x ^= x >> _SHIFT_33
    return x


_FIELD12_MASK = np.uint64(0xFFF)
#: Lazy 4096-entry table mapping 12 bits (two 6-bit position fields) to
#: their 2-bit probe mask — one gather replaces four shift/mask/or
#: passes, and at 32 KB the table lives in L1/L2.
_TABLE12: "np.ndarray" = None


def _mask_table12() -> np.ndarray:
    global _TABLE12
    if _TABLE12 is None:
        x = np.arange(4096, dtype=np.uint64)
        _TABLE12 = (np.left_shift(_ONE, np.bitwise_and(x, _BITS_MASK))
                    | np.left_shift(_ONE, np.bitwise_and(
                        np.right_shift(x, np.uint64(6)), _BITS_MASK)))
    return _TABLE12


def _bit_mask(h2: np.ndarray, k: int) -> np.ndarray:
    """One word per hash: the OR of the ``k`` single-bit probe masks
    encoded in ``h2``'s low ``6k`` bits.  Testing ``(word & mask) ==
    mask`` is equivalent to testing the ``k`` bits one by one but works
    in flat ``n``-sized temporaries instead of a ``(k, n)`` matrix.
    Even ``k`` takes 12 bits (two fields) at a time through a
    precomputed table; both paths produce identical masks."""
    if k % 2 == 0:
        table = _mask_table12()
        mask = table[np.bitwise_and(h2, _FIELD12_MASK)]
        for j in range(1, k // 2):
            shift = np.uint64(12 * j)
            mask |= table[np.bitwise_and(np.right_shift(h2, shift),
                                         _FIELD12_MASK)]
        return mask
    mask = np.left_shift(_ONE, np.bitwise_and(h2, _BITS_MASK))
    for j in range(1, k):
        shift = np.uint64(6 * j)
        mask |= np.left_shift(
            _ONE, np.bitwise_and(np.right_shift(h2, shift), _BITS_MASK))
    return mask


def _word_index(h2: np.ndarray, k: int, size: np.uint64) -> np.ndarray:
    """Word index per hash: the bits above the ``6k`` position fields,
    reduced into ``[0, size)``.

    For ``k <= 5`` the reduction is Lemire's multiply-shift — take 32 of
    the remaining bits ``x`` and compute ``(x * size) >> 32`` — which is
    one widening multiply instead of a 64-bit division and maps uniform
    ``x`` to uniform indices.  ``k = 6`` leaves only 28 spare bits, not
    enough for an unbiased multiply-shift, so it keeps the modulo.
    """
    hi = np.right_shift(h2, np.uint64(6 * k))
    if k <= 5:
        x = np.bitwise_and(hi, _U32_MASK)
        x *= size
        return np.right_shift(x, _SHIFT_32).astype(np.int64)
    return (hi % size).astype(np.int64)


def _encode_words(words: np.ndarray) -> str:
    """A filter's word array as manifest text: ``base64(zlib(words))``."""
    return base64.b64encode(zlib.compress(words.tobytes(), 6)).decode("ascii")


def _decode_words(data, n_words: int) -> np.ndarray:
    """Inverse of :func:`_encode_words`; anything but exactly
    ``n_words`` words is a ``ValueError``."""
    try:
        raw = zlib.decompress(base64.b64decode(data, validate=True))
    except (zlib.error, TypeError) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"filter data does not decode: {exc}") from exc
    if len(raw) != 8 * n_words:
        raise ValueError(f"filter data holds {len(raw)} bytes, its "
                         f"parameters imply {8 * n_words}")
    # .copy(): frombuffer over bytes is read-only, and a loaded writable
    # store keeps inserting into the filter.
    return np.frombuffer(raw, dtype=np.uint64).copy()


def hash_key_columns(
    key_cols: Dict[str, np.ndarray], key_names: Iterable[str],
) -> np.ndarray:
    """One 64-bit key fingerprint per composite key, batch-vectorized.

    Composite keys are mixed like the hash router mixes them (avalanche
    per column with a per-column offset, XOR-combined, finalized) so the
    columns cannot cancel; single-column keys pass through raw.  Either
    way the result is a deterministic *fingerprint* whose uniformity is
    NOT guaranteed — :class:`NegativeFilter` always applies its own
    salted avalanche before deriving probe coordinates, and nothing else
    may consume these values as hash bits.  Works for any router
    strategy — the filter fingerprints keys, not placements.
    """
    names: Tuple[str, ...] = tuple(key_names)
    if len(names) == 1:
        # Single-column fast path: the raw key bits, zero passes.  The
        # filter's own salted avalanche (see ``NegativeFilter._coords``)
        # supplies ALL the mixing, so pre-avalanching a lone column only
        # burns time.  The output of this function is therefore a key
        # *fingerprint*, not uniform bits — only the filter (which
        # re-mixes) may consume it.
        return np.ascontiguousarray(
            key_cols[names[0]], dtype=np.int64).view(np.uint64)
    first = np.asarray(key_cols[names[0]])
    h = np.zeros(first.size, dtype=np.uint64)
    for i, name in enumerate(names):
        col = np.ascontiguousarray(
            key_cols[name], dtype=np.int64).view(np.uint64)
        offset = np.uint64(((i + 1) * int(_GOLDEN)) & 0xFFFFFFFFFFFFFFFF)
        h ^= _mix64(col + offset)
    return _mix64(h)


class NegativeFilter:
    """Blocked Bloom filter over 64-bit key hashes (no false negatives)."""

    __slots__ = ("_words", "k")

    #: Probes may answer True for absent keys (Bloom false positives);
    #: exact filters (:class:`DenseNegativeFilter`) override this.
    exact = False

    #: Default sizing: ~10 filter bits per inserted key.
    BITS_PER_KEY = 10
    #: Default probes per key; all ``k`` bit positions land in one word.
    K = 4

    def __init__(self, n_words: int, k: int = K):
        if n_words < 1:
            raise ValueError("n_words must be >= 1")
        if not 1 <= k <= 6:
            # The k 6-bit position fields and the word index share one
            # 64-bit avalanche; k <= 6 leaves >= 28 bits for the index.
            raise ValueError("k must be in [1, 6]")
        self._words = np.zeros(int(n_words), dtype=np.uint64)
        self.k = int(k)

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, hashes: np.ndarray, bits_per_key: int = BITS_PER_KEY,
              k: int = K) -> "NegativeFilter":
        """Size a filter for ``hashes`` and insert them all."""
        n = int(np.asarray(hashes).size)
        n_words = max(1, -(-n * int(bits_per_key) // 64))
        filt = cls(n_words, k=k)
        filt.add(hashes)
        return filt

    def add(self, hashes: np.ndarray) -> None:
        """Insert key hashes (vectorized; duplicates are harmless)."""
        h = np.asarray(hashes, dtype=np.uint64)
        if h.size == 0:
            return
        idx, mask = self._coords(h)
        np.bitwise_or.at(self._words, idx, mask)

    def try_add(self, hashes: np.ndarray) -> bool:
        """:meth:`add` that reports success — a Bloom filter accepts any
        hash, so always True (the dense variant can decline)."""
        self.add(hashes)
        return True

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def might_contain(self, hashes: np.ndarray) -> np.ndarray:
        """Boolean per hash: False is definitive, True may be a false
        positive.  Every hash previously :meth:`add`-ed answers True."""
        h = np.asarray(hashes, dtype=np.uint64)
        if h.size == 0:
            return np.zeros(0, dtype=bool)
        idx, mask = self._coords(h)
        words = self._words[idx]  # one gather; all k probes hit this word
        return np.bitwise_and(words, mask) == mask

    def _coords(self, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(word_index, k-bit probe mask)`` per hash.

        Both coordinates come from a fresh salted avalanche of the input
        hash, never from the input's own residues: the hash router
        reduces *its* final avalanche modulo ``n_shards``, so within one
        shard every incoming hash shares a residue class — used raw for
        the word index, that class would alias onto a fraction of the
        words whenever ``gcd(n_shards, n_words) > 1`` (quadrupling fill
        there and wrecking the FPR).  The re-mix makes the filter
        indifferent to any structure in its input.
        """
        h2 = _mix64(np.bitwise_xor(h, _BIT_SALT), copy=False)
        # Low 6k bits feed the k in-word positions; the word index takes
        # the bits above them so the two coordinates stay independent.
        idx = _word_index(h2, self.k, np.uint64(self._words.size))
        return idx, _bit_mask(h2, self.k)

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """In-memory filter size (the word array)."""
        return int(self._words.nbytes)

    def to_json(self) -> Dict[str, object]:
        """Manifest-embeddable state: params + ``base64(zlib(words))``."""
        return {
            "kind": "bloom64",
            "k": self.k,
            "n_words": int(self._words.size),
            "data": _encode_words(self._words),
        }

    def __repr__(self) -> str:
        set_bits = int(np.unpackbits(self._words.view(np.uint8)).sum())
        return (f"NegativeFilter(words={self._words.size}, k={self.k}, "
                f"fill={set_bits / (64 * self._words.size):.3f})")


_B63 = np.uint64(63)
_SIX = np.uint64(6)


class DenseNegativeFilter:
    """Exact one-bit-per-domain-value existence map over key fingerprints.

    This is DeepMapping's own Sec. III-C existence bit-vector hoisted to
    the manifest tier: when the key fingerprints are *raw* single-column
    keys (see :func:`hash_key_columns`) spanning a dense domain, a plain
    bitmap over ``[lo, lo + n_bits)`` answers membership **exactly** —
    no hashing, no false positives, and still never a false negative.
    The probe is a subtract, one gather and a bit test, several times
    cheaper than a Bloom probe, and exactness means shard dispatch is
    skipped entirely for true misses.

    Only :func:`build_store_filter` chooses this structure, and only
    when the fingerprint domain fits a bits-per-key budget; composite
    keys (avalanched fingerprints) or sparse domains always fall back to
    the blocked Bloom filter.  Deletes never clear bits, preserving the
    same superset-until-rebuild contract; an insert outside the built
    domain cannot be represented, so :meth:`try_add` declines and the
    owner rebuilds (see ``ShardedDeepMapping.refresh_store_filter``).
    """

    __slots__ = ("_words", "lo", "n_bits")

    exact = True

    def __init__(self, lo: int, n_bits: int):
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if not -2**63 <= lo <= 2**63 - n_bits:
            raise ValueError("[lo, lo + n_bits) must lie inside int64")
        self.lo = int(lo)
        self.n_bits = int(n_bits)
        self._words = np.zeros((self.n_bits + 63) // 64, dtype=np.uint64)

    @classmethod
    def build(cls, hashes: np.ndarray, lo: int, n_bits: int,
              ) -> "DenseNegativeFilter":
        filt = cls(lo, n_bits)
        filt.add(hashes)
        return filt

    def _offsets(self, hashes: np.ndarray) -> np.ndarray:
        # Fingerprints of raw int64 keys were .view()-ed to uint64; view
        # back so ordering (and the subtract) is the keys' own.
        x = np.ascontiguousarray(hashes, dtype=np.uint64).view(np.int64)
        return x - np.int64(self.lo)

    def add(self, hashes: np.ndarray) -> None:
        """Insert fingerprints; raises ``ValueError`` outside the domain."""
        off = self._offsets(hashes)
        if off.size == 0:
            return
        if int(off.min()) < 0 or int(off.max()) >= self.n_bits:
            raise ValueError("fingerprint outside the dense filter domain")
        off = off.view(np.uint64)
        np.bitwise_or.at(self._words, np.right_shift(off, _SIX),
                         np.left_shift(_ONE, np.bitwise_and(off, _B63)))

    def try_add(self, hashes: np.ndarray) -> bool:
        """Insert if every fingerprint fits the domain; False otherwise
        (nothing inserted — the owner must rebuild the filter)."""
        off = self._offsets(hashes)
        if off.size and (int(off.min()) < 0
                         or int(off.max()) >= self.n_bits):
            return False
        self.add(hashes)
        return True

    def might_contain(self, hashes: np.ndarray) -> np.ndarray:
        """Boolean per fingerprint — exact (False IS "not present")."""
        off = self._offsets(hashes)
        if off.size == 0:
            return np.zeros(0, dtype=bool)
        in_range = (off >= 0) & (off < np.int64(self.n_bits))
        # Out-of-range offsets read a clipped word instead of branching;
        # the final AND with ``in_range`` discards whatever they saw
        # (the bit position uses the offset's low 6 bits, harmless).
        u = off.view(np.uint64)
        idx = np.right_shift(u, _SIX).view(np.int64)
        np.clip(idx, 0, self._words.size - 1, out=idx)
        words = self._words[idx]
        bit = np.left_shift(_ONE, np.bitwise_and(u, _B63))
        hit = np.bitwise_and(words, bit) != 0
        hit &= in_range
        return hit

    @property
    def nbytes(self) -> int:
        return int(self._words.nbytes)

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": "dense64",
            "lo": self.lo,
            "n_bits": self.n_bits,
            "data": _encode_words(self._words),
        }

    def __repr__(self) -> str:
        set_bits = int(np.unpackbits(self._words.view(np.uint8)).sum())
        return (f"DenseNegativeFilter(lo={self.lo}, n_bits={self.n_bits}, "
                f"fill={set_bits / max(1, self.n_bits):.3f})")


#: Dense-domain budget for :func:`build_store_filter`: the bitmap is
#: chosen only when it costs <= this many raw bits per key, so even
#: incompressible fills stay inside the manifest's byte budget.
DENSE_MAX_BITS_PER_KEY = 8


def build_store_filter(hashes: np.ndarray,
                       bits_per_key: int = NegativeFilter.BITS_PER_KEY,
                       k: int = NegativeFilter.K):
    """The store filter for a set of key fingerprints.

    Picks the exact :class:`DenseNegativeFilter` when the fingerprints
    span a domain of at most :data:`DENSE_MAX_BITS_PER_KEY` bits per
    key — true for raw single-column keys over dense-ish domains, the
    common paper workload — and the blocked Bloom :class:`NegativeFilter`
    otherwise (composite avalanched fingerprints always look sparse, so
    they land here by construction).
    """
    h = np.asarray(hashes, dtype=np.uint64)
    if h.size:
        x = h.view(np.int64)
        lo = int(x.min())
        domain = int(x.max()) - lo + 1
        if domain <= max(64, DENSE_MAX_BITS_PER_KEY * int(h.size)):
            return DenseNegativeFilter.build(h, lo, domain)
    return NegativeFilter.build(h, bits_per_key=bits_per_key, k=k)


def filter_from_json(state: Dict[str, object]):
    """Restore a persisted negative filter by its ``kind`` tag.

    The one reader of ``to_json`` output, and the state is outside
    input: parameters go through the constructors' checks and the data
    must decode to exactly the words they imply, so damage surfaces here
    as a ``ValueError`` (``KeyError`` / ``TypeError`` for a missing or
    non-integer field) instead of a filter that answers wrongly.
    """
    kind = state.get("kind") if isinstance(state, dict) else None
    # Decode before constructing: a damaged size field must fail the
    # word-count check, not drive an allocation.
    if kind == "dense64":
        lo = operator.index(state["lo"])
        n_bits = operator.index(state["n_bits"])
        words = _decode_words(state["data"], (n_bits + 63) // 64)
        filt = DenseNegativeFilter(lo, n_bits)
    elif kind == "bloom64":
        n_words = operator.index(state["n_words"])
        k = operator.index(state["k"])
        words = _decode_words(state["data"], n_words)
        filt = NegativeFilter(n_words, k=k)
    else:
        raise ValueError(f"unknown negative-filter kind {kind!r}")
    filt._words = words
    return filt
