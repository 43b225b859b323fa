"""Storage substrate: backends, bit vectors, codecs, partitions, pool.

These are the building blocks under both the DeepMapping hybrid structure
and every baseline in the paper's evaluation.  A partition's compressed
bytes live in one place, the read-only buffer its
:class:`SortedPartitionStore` holds (a slice of the opened store file, or
the codec's output for one built in this process); the
:class:`BufferPool` caches decoded partitions under keys that are never
reused (:func:`new_pool_key`).
"""

from . import zerocopy
from .backends import (MONOLITHIC_BLOB, URL_SCHEMES, InMemoryBackend,
                       LocalDirBackend, StorageBackend, ZipBackend,
                       backend_for_url, backend_identity, blob_version,
                       parse_url, read_blob_view, resolve_blob_url)
from .bitvector import BitVector
from .blob_cache import BlobCache, configure_payload_cache, payload_cache
from .buffer_pool import BufferPool, MemoryBudgetError, new_pool_key
from .codecs import (
    Codec,
    GzipCodec,
    IdentityCodec,
    LzmaCodec,
    ZstdCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from .hydration import LazyShard, RangeReader
from .remote import (CachedHttpBackend, HttpBackend,
                     configure_hydration_cache, hydration_cache_root)
from .partition import PartitionMeta, SortedPartitionStore
from .serializer import (
    deserialize_block,
    dictionary_decode,
    dictionary_encode,
    minimal_int_dtype,
    serialize_block,
    serialized_size,
)
from .stats import Stopwatch, StoreStats

__all__ = [
    "StorageBackend",
    "LocalDirBackend",
    "InMemoryBackend",
    "ZipBackend",
    "backend_for_url",
    "resolve_blob_url",
    "parse_url",
    "read_blob_view",
    "blob_version",
    "backend_identity",
    "URL_SCHEMES",
    "MONOLITHIC_BLOB",
    "BitVector",
    "BlobCache",
    "payload_cache",
    "configure_payload_cache",
    "BufferPool",
    "MemoryBudgetError",
    "new_pool_key",
    "zerocopy",
    "Codec",
    "IdentityCodec",
    "GzipCodec",
    "ZstdCodec",
    "LzmaCodec",
    "get_codec",
    "available_codecs",
    "register_codec",
    "HttpBackend",
    "CachedHttpBackend",
    "configure_hydration_cache",
    "hydration_cache_root",
    "RangeReader",
    "LazyShard",
    "PartitionMeta",
    "SortedPartitionStore",
    "serialize_block",
    "deserialize_block",
    "dictionary_encode",
    "dictionary_decode",
    "minimal_int_dtype",
    "serialized_size",
    "Stopwatch",
    "StoreStats",
]
