"""Block (de)serialization and dictionary encoding.

A *block* is a ``dict`` mapping column names to numpy arrays (plus small
metadata values), serialized with ``pickle`` backed by C as the paper does
(``pickle.HIGHEST_PROTOCOL``).  The hash baselines store their partitions
this way, and an array partition its columns when they hold objects or
are dictionary-encoded; fixed-width columns are written raw by
:func:`repro.storage.partition.encode_partition` instead.

Dictionary encoding (the paper's ``ABC-D`` baseline and Redshift-style byte
dictionary) is implemented here as a columnar transform applied before
pickling: each column is replaced by a compact integer code array plus its
vocabulary.  High-cardinality integer columns are stored via their minimal
dtype instead, which is what production dictionary encoders fall back to.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Dict

import numpy as np

__all__ = [
    "serialize_block",
    "deserialize_block",
    "dictionary_encode",
    "dictionary_decode",
    "minimal_int_dtype",
    "serialized_size",
]

#: Columns whose distinct-value count exceeds this fraction of the row count
#: are not dictionary-encoded (the vocabulary would dominate the codes).
_DICT_CARDINALITY_FRACTION = 0.5


def serialize_block(block: Any) -> bytes:
    """Serialize an arbitrary picklable block to bytes."""
    return pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_block(payload: bytes) -> Any:
    """Inverse of :func:`serialize_block`."""
    return pickle.loads(payload)


class _SizingPickler(pickle.Pickler):
    """Pickles a read-only array as the owned array it was saved from.

    Protocol 5 frames a read-only buffer shorter than a writable one, so
    without this a store opened read-only (its arrays are views into
    the mapped payload) would report other Eq. 1 sizes than the same
    store freshly fit or opened writable."""

    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray) and not obj.flags.writeable:
            return obj.copy().__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        return NotImplemented


def serialized_size(block: Any) -> int:
    """Size in bytes of the pickled representation of ``block``, the
    same whether its arrays own their memory or are read-only views."""
    buffer = io.BytesIO()
    _SizingPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(block)
    return buffer.tell()


def minimal_int_dtype(max_value: int) -> np.dtype:
    """Smallest unsigned dtype able to hold values in ``[0, max_value]``."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    for dtype in (np.uint8, np.uint16, np.uint32):
        if max_value <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def dictionary_encode(columns: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """Dictionary-encode a dict of columns.

    Returns an encoded block of the shape::

        {"__dict_encoded__": True,
         "columns": {name: {"codes": uint-array, "vocab": array} | {"raw": array}}}

    Columns where encoding would not pay off keep their raw array (tagged
    ``"raw"``) so the transform is always safe to apply.
    """
    encoded: Dict[str, Any] = {"__dict_encoded__": True, "columns": {}}
    for name, values in columns.items():
        arr = np.asarray(values)
        vocab, codes = np.unique(arr, return_inverse=True)
        if arr.size and len(vocab) <= max(1, int(arr.size * _DICT_CARDINALITY_FRACTION)):
            codes = codes.astype(minimal_int_dtype(max(len(vocab) - 1, 0)))
            encoded["columns"][name] = {"codes": codes, "vocab": vocab}
        else:
            encoded["columns"][name] = {"raw": arr}
    return encoded


def dictionary_decode(encoded: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Invert :func:`dictionary_encode`, restoring the original columns."""
    if not encoded.get("__dict_encoded__"):
        raise ValueError("block is not dictionary-encoded")
    columns: Dict[str, np.ndarray] = {}
    for name, payload in encoded["columns"].items():
        if "raw" in payload:
            columns[name] = payload["raw"]
        else:
            columns[name] = payload["vocab"][payload["codes"]]
    return columns
