"""Byte-level compression codecs used throughout the reproduction.

The paper evaluates four compression configurations on top of the array and
hash representations, and two on top of the DeepMapping auxiliary table:

=============  =======================================================
Paper name     This module
=============  =======================================================
(no codec)     :class:`IdentityCodec` (``"none"``)
Gzip           :class:`GzipCodec` (``"gzip"``, zlib level 9)
Z-Standard     :class:`ZstdCodec` (``"zstd"``) — **simulated** with zlib
               level 1 because the ``zstandard`` wheel is unavailable in
               this offline environment.  zlib-1 occupies the same design
               point (fast decompression, moderate ratio), which is what
               the paper's Z vs. L sweep exercises.
LZMA           :class:`LzmaCodec` (``"lzma"``)
=============  =======================================================

Dictionary encoding (the paper's ``ABC-D``) is a *columnar transform*, not a
byte codec; it lives in :mod:`repro.storage.serializer`.
"""

from __future__ import annotations

import lzma
import zlib
from typing import Callable, Dict

__all__ = [
    "Codec",
    "IdentityCodec",
    "GzipCodec",
    "ZstdCodec",
    "LzmaCodec",
    "get_codec",
    "available_codecs",
    "register_codec",
]


class Codec:
    """Interface for a lossless byte codec.

    Subclasses must round-trip exactly: ``decompress(compress(b)) == b``.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def compress(self, payload: bytes) -> bytes:
        """Compress ``payload`` and return the encoded bytes."""
        raise NotImplementedError

    def decompress(self, payload: bytes) -> bytes:
        """Exactly invert :meth:`compress`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityCodec(Codec):
    """No-op codec: stores bytes verbatim (paper's uncompressed AB / HB)."""

    name = "none"

    def compress(self, payload: bytes) -> bytes:
        return payload

    def decompress(self, payload: bytes) -> bytes:
        return payload


class GzipCodec(Codec):
    """Gzip-class codec (zlib container, level 9) — the paper's ``-G`` suffix."""

    name = "gzip"

    def __init__(self, level: int = 9):
        if not 0 <= level <= 9:
            raise ValueError(f"zlib level must be in [0, 9], got {level}")
        self.level = level

    def compress(self, payload: bytes) -> bytes:
        return zlib.compress(payload, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return zlib.decompress(payload)


class ZstdCodec(Codec):
    """Z-Standard stand-in — the paper's ``-Z`` suffix.

    The real ``zstandard`` binding is unavailable offline; zlib at level 1
    reproduces its role in the paper's design space: the *fast* codec with a
    moderate compression ratio, contrasted against LZMA (slow, small).
    The paper itself tunes zstd levels per test case (Sec. V-A4); the
    ``level`` knob here serves the same purpose.
    """

    name = "zstd"

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise ValueError(f"level must be in [0, 9], got {level}")
        self.level = level

    def compress(self, payload: bytes) -> bytes:
        return zlib.compress(payload, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return zlib.decompress(payload)


class LzmaCodec(Codec):
    """LZMA codec — the paper's ``-L`` suffix (slowest, best ratio).

    Streams use the bare ``.lzma`` container (a 13-byte header), not
    ``.xz``, whose ~60 bytes of headers, index and check per stream
    outweigh LZMA's ratio gain on a partition of a few hundred bytes.
    Integrity comes from the store container's per-segment CRC.
    """

    name = "lzma"

    def __init__(self, preset: int = 6):
        if not 0 <= preset <= 9:
            raise ValueError(f"lzma preset must be in [0, 9], got {preset}")
        self.preset = preset

    def compress(self, payload: bytes) -> bytes:
        return lzma.compress(payload, format=lzma.FORMAT_ALONE,
                             preset=self.preset)

    def decompress(self, payload: bytes) -> bytes:
        return lzma.decompress(payload, format=lzma.FORMAT_ALONE)


_REGISTRY: Dict[str, Callable[[], Codec]] = {
    "none": IdentityCodec,
    "gzip": GzipCodec,
    "zstd": ZstdCodec,
    "lzma": LzmaCodec,
}


def get_codec(name: str) -> Codec:
    """Instantiate a codec by registry name (``none|gzip|zstd|lzma``)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def available_codecs() -> list:
    """Names of all registered codecs, sorted."""
    return sorted(_REGISTRY)


def register_codec(name: str, factory: Callable[[], Codec]) -> None:
    """Register a custom codec factory under ``name`` (used by extensions)."""
    _REGISTRY[name] = factory
