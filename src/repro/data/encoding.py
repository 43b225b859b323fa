"""Key and value encodings for the learned mapping.

The paper one-hot encodes keys and label-encodes categorical values
(Sec. IV-A).  Concretely:

- **Keys**: a (possibly composite) key is flattened to a single non-negative
  integer by :class:`CompositeKeyCodec` (mixed-radix over the per-attribute
  domains), then :class:`KeyEncoder` expands that integer into fixed-width
  base-``b`` digits, each one-hot encoded — the input feature vector.  This
  keeps the input width logarithmic in the key domain, exactly like the
  reference implementation.
- **Values**: each value column gets a :class:`ValueEncoder` mapping original
  values to dense label codes; the collection of them is the paper's decode
  map ``f_decode``, stored alongside the model (:class:`DecodeMap`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..storage.serializer import serialized_size

__all__ = ["CompositeKeyCodec", "KeyEncoder", "ValueEncoder", "DecodeMap"]

#: Refuse flattened key domains larger than this (bit-vector would explode).
_MAX_DOMAIN = 1 << 40


class CompositeKeyCodec:
    """Flattens ``l`` integer key columns into one int64 key.

    Uses mixed-radix positional encoding over each column's observed domain
    ``[min, max]``.  The flattened domain (product of extents) also sizes the
    existence bit vector, so it is capped at ``2**40``.
    """

    def __init__(self, key_names: Sequence[str]):
        if not key_names:
            raise ValueError("at least one key column required")
        self.key_names = tuple(key_names)
        self._mins: Optional[np.ndarray] = None
        self._extents: Optional[np.ndarray] = None
        self._strides: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, columns: Dict[str, np.ndarray],
            headroom: int = 0) -> "CompositeKeyCodec":
        """Learn per-column domains from data.

        ``headroom`` widens the *last-fitted* (slowest-varying) column's
        extent so future insertions with larger key values still flatten
        into the domain (used by the modification workflows).
        """
        mins, extents = [], []
        for i, name in enumerate(self.key_names):
            col = np.asarray(columns[name], dtype=np.int64)
            if col.size == 0:
                raise ValueError(f"key column {name!r} is empty")
            lo, hi = int(col.min()), int(col.max())
            extent = hi - lo + 1
            if i == 0:
                extent += int(headroom)
            mins.append(lo)
            extents.append(extent)
        self._set_domain(mins, extents)
        if self.domain_size > _MAX_DOMAIN:
            raise ValueError(
                f"flattened key domain {self.domain_size} exceeds {_MAX_DOMAIN}"
            )
        return self

    @property
    def fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        return self._mins is not None

    @property
    def domain_size(self) -> int:
        """Size of the flattened key domain (bit-vector length)."""
        self._require_fitted()
        return int(np.prod(self._extents))

    # ------------------------------------------------------------------
    def flatten(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """Flatten key columns to int64 codes in ``[0, domain_size)``.

        Raises ``ValueError`` naming the first key column with values
        outside the fitted domain.
        """
        flat, _, outside = self._flatten(columns)
        if outside is not None:
            raise ValueError(f"key column {outside!r} has values outside "
                             "the fitted domain")
        return flat

    def extend_domain(self, columns: Dict[str, np.ndarray]) -> bool:
        """Grow the domain to cover new key values, preserving old codes.

        Existing flat codes stay valid only when the growth is confined to
        the *upper* end of the slowest-varying (first) key column — its
        stride multiplies the later extents, which must not change.
        Returns False (leaving the codec untouched) when the new keys
        cannot be accommodated that way; callers then rebuild from scratch.
        """
        self._require_fitted()
        new_first_max = None
        for i, name in enumerate(self.key_names):
            col = np.asarray(columns[name], dtype=np.int64)
            if col.size == 0:
                continue
            lo, hi = int(col.min()), int(col.max())
            if lo < self._mins[i]:
                return False
            extent_needed = hi - int(self._mins[i]) + 1
            if i == 0:
                new_first_max = max(extent_needed, int(self._extents[0]))
            elif extent_needed > self._extents[i]:
                return False
        if new_first_max is not None and new_first_max > self._extents[0]:
            proposed = int(new_first_max) * int(np.prod(self._extents[1:]))
            if proposed > _MAX_DOMAIN:
                return False
            self._extents = self._extents.copy()
            self._extents[0] = new_first_max
        return True

    def try_flatten(
        self, columns: Dict[str, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`flatten` but tolerant of out-of-domain keys.

        Returns ``(flat, in_domain)``; rows outside the fitted domain get
        flat code 0 and ``in_domain`` False.  Used at query time, where an
        unknown key simply means "does not exist".
        """
        flat, in_domain, _ = self._flatten(columns)
        return flat, in_domain

    def _flatten(self, columns: Dict[str, np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray, Optional[str]]:
        """``(flat, in_domain, first out-of-domain column or None)``."""
        self._require_fitted()
        flat = ok = outside = None
        for i, name in enumerate(self.key_names):
            # A fresh array: offsets from the column's min.  Viewed
            # unsigned, a negative offset wraps high, so one compare
            # tests both ends of the extent.
            col = np.asarray(columns[name], dtype=np.int64) - self._mins[i]
            inside = col.view(np.uint64) < np.uint64(self._extents[i])
            if not inside.all():
                if outside is None:
                    outside = name
                col[~inside] = 0
            col *= self._strides[i]
            flat = col if flat is None else flat + col
            ok = inside if ok is None else ok & inside
        if outside is not None:
            flat[~ok] = 0
        return flat, ok, outside

    def unflatten(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Invert :meth:`flatten`."""
        self._require_fitted()
        flat = np.asarray(flat, dtype=np.int64)
        out: Dict[str, np.ndarray] = {}
        for i, name in enumerate(self.key_names):
            digit = (flat // self._strides[i]) % self._extents[i]
            out[name] = digit + self._mins[i]
        return out

    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """Picklable state."""
        self._require_fitted()
        return {
            "key_names": self.key_names,
            "mins": self._mins,
            "extents": self._extents,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "CompositeKeyCodec":
        """Restore from :meth:`to_state`."""
        codec = cls(state["key_names"])
        codec._set_domain(state["mins"], state["extents"])
        return codec

    def _set_domain(self, mins, extents) -> None:
        self._mins = np.asarray(mins, dtype=np.int64)
        self._extents = np.asarray(extents, dtype=np.int64)
        self._strides = np.ones(self._extents.size, dtype=np.int64)
        for i in range(self._extents.size - 2, -1, -1):
            self._strides[i] = self._strides[i + 1] * self._extents[i + 1]

    def _require_fitted(self) -> None:
        if self._mins is None:
            raise RuntimeError("codec is not fitted")

    def __repr__(self) -> str:
        if not self.fitted:
            return f"CompositeKeyCodec(key={self.key_names}, unfitted)"
        return (
            f"CompositeKeyCodec(key={self.key_names}, "
            f"domain={self.domain_size})"
        )


class KeyEncoder:
    """Fixed-width digit one-hot encoding of flattened integer keys.

    A key ``k`` is written in base ``b`` using ``width_b`` digits; each
    digit becomes a one-hot block.  This is the feature encoding the
    reference DeepMapping implementation uses: compact (logarithmic in the
    domain) yet positional enough for an MLP to learn digit-aligned
    patterns.

    ``base`` may also be a *tuple* of bases: the key is then expanded in
    every base and the one-hot blocks concatenated.  Co-prime bases hand
    the network the key's residues modulo each base (and their powers), so
    periodic value patterns whose period divides any base power become
    directly readable — a Chinese-remainder-style feature map that makes
    cross-product tables (TPC-DS ``customer_demographics``) learnable by
    small models.  This is a reproduction-side extension; the paper uses a
    single base.
    """

    def __init__(self, base=10):
        bases = (base,) if isinstance(base, int) else tuple(base)
        if not bases or any(b < 2 for b in bases):
            raise ValueError("every base must be >= 2")
        self.bases = bases
        self.widths: Optional[Tuple[int, ...]] = None

    def fit(self, max_key: int) -> "KeyEncoder":
        """Choose per-base digit widths from the largest key to encode."""
        if max_key < 0:
            raise ValueError("max_key must be non-negative")
        widths = []
        for base in self.bases:
            width = 1
            while base**width <= max_key:
                width += 1
            widths.append(width)
        self.widths = tuple(widths)
        return self

    @property
    def input_dim(self) -> int:
        """Width of the encoded feature vector."""
        self._require_fitted()
        return sum(w * b for w, b in zip(self.widths, self.bases))

    def encode(self, keys) -> np.ndarray:
        """Encode int keys into float32 one-hot digit features."""
        self._require_fitted()
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and keys.min() < 0:
            raise ValueError("keys must be non-negative")
        n = keys.size
        out = np.zeros((n, self.input_dim), dtype=np.float32)
        rows = np.arange(n)
        offset = 0
        for base, width in zip(self.bases, self.widths):
            rest = keys.copy()
            for d in range(width - 1, -1, -1):
                digit = rest % base
                rest //= base
                out[rows, offset + d * base + digit] = 1.0
            offset += width * base
        return out

    def to_state(self) -> Dict[str, object]:
        """Picklable state."""
        self._require_fitted()
        return {"bases": self.bases, "widths": self.widths}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "KeyEncoder":
        """Restore from :meth:`to_state`."""
        encoder = cls(base=tuple(state["bases"]))
        encoder.widths = tuple(state["widths"])
        return encoder

    def _require_fitted(self) -> None:
        if self.widths is None:
            raise RuntimeError("encoder is not fitted (width unknown)")

    def __repr__(self) -> str:
        return f"KeyEncoder(bases={self.bases}, widths={self.widths})"


class ValueEncoder:
    """Dense label encoding for one value column.

    The vocabulary is append-only: :meth:`extend` registers values first
    seen at insert/update time without disturbing existing codes (the model
    can never predict the new codes, so such rows always land in the
    auxiliary table — exactly the paper's modification semantics).
    """

    def __init__(self, name: str):
        self.name = name
        self._vocab: Optional[np.ndarray] = None
        self._sorted: Optional[np.ndarray] = None
        self._sorted_to_code: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "ValueEncoder":
        """Build the vocabulary from observed values."""
        self._vocab = np.unique(np.asarray(values))
        self._rebuild_index()
        return self

    def extend(self, values: np.ndarray) -> int:
        """Append unseen values to the vocabulary; returns how many."""
        self._require_fitted()
        arr = np.asarray(values)
        _, ok = self.try_encode(arr)
        fresh = np.unique(arr[~ok])
        if fresh.size:
            self._vocab = np.concatenate([self._vocab, fresh])
            self._rebuild_index()
        return int(fresh.size)

    def _rebuild_index(self) -> None:
        order = np.argsort(self._vocab, kind="stable")
        self._sorted = self._vocab[order]
        self._sorted_to_code = order.astype(np.int64)

    @property
    def cardinality(self) -> int:
        """Vocabulary size (softmax width of this task's head)."""
        self._require_fitted()
        return int(self._vocab.size)

    @property
    def vocab(self) -> np.ndarray:
        """The sorted vocabulary array."""
        self._require_fitted()
        return self._vocab

    def encode(self, values) -> np.ndarray:
        """Values -> int64 codes; raises on out-of-vocabulary values."""
        codes, ok = self.try_encode(values)
        if not ok.all():
            raise ValueError(f"out-of-vocabulary values for column {self.name!r}")
        return codes

    def try_encode(self, values) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`encode` but returns ``(codes, in_vocab_mask)``;
        out-of-vocabulary rows get code 0 and mask False."""
        self._require_fitted()
        arr = np.asarray(values)
        pos = np.searchsorted(self._sorted, arr)
        pos = np.minimum(pos, self._sorted.size - 1)
        ok = self._sorted[pos] == arr
        codes = np.where(ok, self._sorted_to_code[pos], 0)
        return codes.astype(np.int64), ok

    def decode(self, codes) -> np.ndarray:
        """Codes -> original values."""
        self._require_fitted()
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= self._vocab.size):
            raise ValueError(f"code out of range for column {self.name!r}")
        return self._vocab[codes]

    def to_state(self) -> Dict[str, object]:
        """Picklable state."""
        self._require_fitted()
        return {"name": self.name, "vocab": self._vocab}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ValueEncoder":
        """Restore from :meth:`to_state`."""
        enc = cls(state["name"])
        vocab = np.asarray(state["vocab"])
        # An unpickled dtype is a private object; re-wrap (no copy) at
        # NumPy's canonical one, as every other component's from_state
        # does, so a re-save shares dtype objects between arrays the
        # way a fresh build does and writes the identical head.
        enc._vocab = np.asarray(vocab, dtype=np.dtype(vocab.dtype.str))
        enc._rebuild_index()
        return enc

    def _require_fitted(self) -> None:
        if self._vocab is None:
            raise RuntimeError(f"value encoder {self.name!r} is not fitted")

    def __repr__(self) -> str:
        card = self.cardinality if self._vocab is not None else "unfitted"
        return f"ValueEncoder({self.name!r}, cardinality={card})"


class DecodeMap:
    """The paper's ``f_decode``: per-column label decoders, stored as part
    of the auxiliary structure and counted in the Eq. 1 size objective."""

    def __init__(self, encoders: Dict[str, ValueEncoder]):
        if not encoders:
            raise ValueError("at least one value encoder required")
        self.encoders = dict(encoders)

    @classmethod
    def fit(cls, columns: Dict[str, np.ndarray]) -> "DecodeMap":
        """Fit one encoder per value column."""
        return cls({n: ValueEncoder(n).fit(v) for n, v in columns.items()})

    @property
    def columns(self) -> Tuple[str, ...]:
        """Encoded column names, sorted (task order)."""
        return tuple(sorted(self.encoders))

    def cardinalities(self) -> Dict[str, int]:
        """Softmax width per task."""
        return {n: e.cardinality for n, e in self.encoders.items()}

    def encode(self, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Encode every column to label codes."""
        return {n: self.encoders[n].encode(v) for n, v in columns.items()}

    def decode(self, codes: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Decode label codes back to original values."""
        return {n: self.encoders[n].decode(c) for n, c in codes.items()}

    def extend(self, columns: Dict[str, np.ndarray]) -> int:
        """Register values first seen at modification time; returns the
        number of new vocabulary entries added across columns."""
        return sum(self.encoders[n].extend(v) for n, v in columns.items())

    @property
    def nbytes(self) -> int:
        """Serialized size — ``size(f_decode)`` in Eq. 1."""
        return serialized_size(self.to_state())

    def to_state(self) -> Dict[str, object]:
        """Picklable state."""
        return {n: e.to_state() for n, e in self.encoders.items()}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "DecodeMap":
        """Restore from :meth:`to_state`."""
        return cls({n: ValueEncoder.from_state(s) for n, s in state.items()})

    def __repr__(self) -> str:
        return f"DecodeMap(columns={list(self.columns)})"
