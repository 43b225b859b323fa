"""Comparison baselines from the paper's evaluation (Sec. V-A3).

========  ==============================================================
Name      Meaning
========  ==============================================================
AB        array-based, uncompressed
ABC-D     array-based + dictionary encoding
ABC-G     array-based + Gzip
ABC-Z     array-based + Z-Standard (stand-in codec)
ABC-L     array-based + LZMA
HB        hash-based, uncompressed
HBC-Z     hash-based + Z-Standard (stand-in codec)
HBC-L     hash-based + LZMA
DS        DeepSqueeze (semantic, lossy, error bound 0.001)
========  ==============================================================

:func:`make_baseline` builds any of them by paper name.
"""

from typing import Optional

from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from .array_store import ArrayStore
from .base import BaselineStore
from .deepsqueeze import DeepSqueeze
from .hash_store import HashStore

__all__ = [
    "BaselineStore",
    "ArrayStore",
    "HashStore",
    "DeepSqueeze",
    "make_baseline",
    "BASELINE_NAMES",
]

BASELINE_NAMES = (
    "AB", "ABC-D", "ABC-G", "ABC-Z", "ABC-L", "HB", "HBC-Z", "HBC-L", "DS",
)


def make_baseline(
    name: str,
    target_partition_bytes: int = 128 * 1024,
    pool: Optional[BufferPool] = None,
    stats: Optional[StoreStats] = None,
    **kwargs,
) -> BaselineStore:
    """Instantiate a baseline by its paper name (see module docstring)."""
    common = dict(pool=pool, stats=stats)
    if name == "AB":
        return ArrayStore(codec="none",
                          target_partition_bytes=target_partition_bytes,
                          **common)
    if name == "ABC-D":
        return ArrayStore(codec="none", dict_encode=True,
                          target_partition_bytes=target_partition_bytes,
                          **common)
    if name in ("ABC-G", "ABC-Z", "ABC-L"):
        codec = {"ABC-G": "gzip", "ABC-Z": "zstd", "ABC-L": "lzma"}[name]
        return ArrayStore(codec=codec,
                          target_partition_bytes=target_partition_bytes,
                          **common)
    if name == "HB":
        return HashStore(codec="none",
                         target_partition_bytes=target_partition_bytes,
                         **common)
    if name in ("HBC-Z", "HBC-L"):
        codec = {"HBC-Z": "zstd", "HBC-L": "lzma"}[name]
        return HashStore(codec=codec,
                         target_partition_bytes=target_partition_bytes,
                         **common)
    if name == "DS":
        return DeepSqueeze(**common, **kwargs)
    raise KeyError(f"unknown baseline {name!r}; have {BASELINE_NAMES}")
