"""Zero-copy payload container: pickle protocol 5 with out-of-band buffers.

A classic pickle inlines every array's bytes into the stream, so loading
always copies them onto the heap.  This module packs an object graph into
a small framed container instead:

``MAGIC | n_buffers | head_len | (offset, length) x n | head | buffers |
footer``

The *head* is the protocol-5 pickle of the object with every contiguous
array exported through ``buffer_callback``; the buffers follow, each
aligned to 64 bytes.  :func:`unpack` rebuilds the object by handing
``pickle.loads`` memoryview slices of the container — with
``zero_copy=True`` over an mmap'd file, NumPy reconstructs those arrays
as ``np.frombuffer`` views over the shared pages: no per-open copy, and
concurrent opens of the same store share physical memory.  Views built
from a read-only buffer come back with ``writeable=False``, which is
exactly the contract of a ``repro.open(..., writable=False)`` store.

With ``zero_copy=False`` (the default) each buffer is materialized as a
private ``bytearray`` first, so the loaded arrays are ordinary writable
copies — what mutating stores need.

**Integrity.** Every container ends in a checksum footer: one CRC-32
over the head and one per buffer segment.  :func:`unpack` verifies them
and raises a typed :class:`~repro.resilience.errors.StoreCorruptedError`
naming the mangled segment — a single flipped byte anywhere in the
container is caught before a corrupt array can reach a lookup.
Verification is paid once per *load*, and the read path loads a blob
once per content version (the
:class:`~repro.storage.blob_cache.BlobCache` keys on the backend's
version stamp), so in steady state it amortizes to first touch.

**One index parser.** :func:`parse_index` alone knows where head,
segments and footer lie: :func:`unpack` runs it over the whole payload,
:class:`~repro.storage.hydration.RangeReader` over a downloaded prefix
and the blob's length as the backend reports it.  A slot table that is
not exactly what :func:`pack` lays out for the same lengths —
unaligned, overlapping, out of order, running past the blob — is
refused before a byte is sliced, allocated or fetched.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import Any, List, NamedTuple, Optional, Tuple

from ..resilience.errors import StoreCorruptedError

__all__ = ["pack", "unpack", "is_packed", "MAGIC", "ContainerIndex",
           "index_size", "parse_index"]

#: Container signature.  Deliberately not a valid pickle opcode
#: sequence, so feeding a packed payload to ``pickle.loads`` fails
#: loudly.
MAGIC = b"RZC2\x00\xff"

#: Buffer segments start on this alignment so reconstructed views are
#: friendly to vectorized loads whatever their dtype.
_ALIGN = 64

_HEADER = struct.Struct("<QQ")  # n_buffers, head_len
_SLOT = struct.Struct("<QQ")    # absolute offset, length
_CRC = struct.Struct("<I")      # one per segment, head first
_SLOTS_AT = len(MAGIC) + _HEADER.size  # where the slot table starts


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _corrupt(what: str, detail: str) -> StoreCorruptedError:
    return StoreCorruptedError(
        f"corrupt zero-copy container {what}: {detail}")


def _layout(head_len: int, lengths) -> Tuple[int, List[int], int]:
    """Where :func:`pack` puts things: ``(head_start, segment offsets,
    footer_start)`` for a head and segments of the given lengths."""
    head_start = _SLOTS_AT + _SLOT.size * len(lengths)
    end = head_start + head_len
    offsets = []
    for length in lengths:
        offsets.append(_aligned(end))
        end = offsets[-1] + length
    return head_start, offsets, _aligned(end) if offsets else end


class ContainerIndex(NamedTuple):
    """Byte extents of one container, each ``(start, end)``."""

    #: The protocol-5 pickle of the object graph.
    head: Tuple[int, int]
    #: One out-of-band buffer segment per slot, in slot order.
    segments: Tuple[Tuple[int, int], ...]
    #: The CRC-32 footer; its end is the container's length.
    footer: Tuple[int, int]


def pack(obj: Any) -> bytearray:
    """Serialize ``obj`` into the zero-copy container format.

    Returns the assembled buffer as a ``bytearray`` (every backend write
    path accepts any buffer; copying to ``bytes`` would transiently
    double peak memory for large payloads).
    """
    picklebuffers: List[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5,
                        buffer_callback=picklebuffers.append)
    raws: List[memoryview] = []
    for pb in picklebuffers:
        try:
            raw = pb.raw()
        except BufferError:
            # Non-contiguous exports cannot be viewed flat; snapshot them.
            raw = memoryview(memoryview(pb).tobytes())
        raws.append(raw.cast("B"))

    head_start, offsets, footer_start = _layout(
        len(head), [raw.nbytes for raw in raws])
    out = bytearray(footer_start + _CRC.size * (len(raws) + 1))
    out[:len(MAGIC)] = MAGIC
    _HEADER.pack_into(out, len(MAGIC), len(raws), len(head))
    out[head_start:head_start + len(head)] = head
    _CRC.pack_into(out, footer_start, zlib.crc32(head))
    for i, (raw, start) in enumerate(zip(raws, offsets)):
        _SLOT.pack_into(out, _SLOTS_AT + _SLOT.size * i, start, raw.nbytes)
        out[start:start + raw.nbytes] = raw
        _CRC.pack_into(out, footer_start + _CRC.size * (i + 1),
                       zlib.crc32(raw))
    return out


def is_packed(payload) -> bool:
    """True when ``payload`` starts with the container magic."""
    view = memoryview(payload)
    return bytes(view[:len(MAGIC)]) == MAGIC


def index_size(prefix, blob_size: int, what: str = "payload") \
        -> Optional[int]:
    """Bytes of index (magic, header, slot table) the container
    starting with ``prefix`` has — the prefix :func:`parse_index` needs
    — or None when it is not a container.  An index claiming more than
    ``blob_size`` bytes is refused here, before a reader fetches it."""
    if not is_packed(prefix):
        return None
    if len(prefix) < _SLOTS_AT:
        raise _corrupt(what, f"header truncated at {len(prefix)} bytes")
    n_buffers, head_len = _HEADER.unpack_from(prefix, len(MAGIC))
    size = _SLOTS_AT + _SLOT.size * n_buffers
    if size + head_len + _CRC.size * (n_buffers + 1) > blob_size:
        raise _corrupt(what, f"header claims {n_buffers} segments and a "
                             f"{head_len}-byte head, the blob is "
                             f"{blob_size} bytes")
    return size


def parse_index(prefix, blob_size: int,
                what: str = "payload") -> ContainerIndex:
    """The extents of the container that starts with ``prefix``.

    ``blob_size`` is the whole blob's length as its backend reports it;
    ``what`` names the blob in errors.  Raises
    :class:`StoreCorruptedError` unless the slot table is exactly the
    layout :func:`pack` writes for the same lengths and ends where the
    blob ends, so no extent needs bounds-checking again.
    """
    size = index_size(prefix, blob_size, what)
    if size is None:
        raise StoreCorruptedError(
            f"{what} is not a zero-copy container (bad magic)")
    if len(prefix) < size:
        raise _corrupt(what, f"index truncated at {len(prefix)} of "
                             f"{size} bytes")
    n_buffers, head_len = _HEADER.unpack_from(prefix, len(MAGIC))
    slots = [_SLOT.unpack_from(prefix, _SLOTS_AT + _SLOT.size * i)
             for i in range(n_buffers)]
    head_start, offsets, footer_start = _layout(
        head_len, [length for _, length in slots])
    for i, ((start, length), expected) in enumerate(zip(slots, offsets)):
        if start != expected:
            raise _corrupt(what, f"segment {i} of {n_buffers} is recorded "
                                 f"at byte {start}, its predecessors end "
                                 f"at {expected} (unaligned, overlapping "
                                 "or out of order)")
    footer_end = footer_start + _CRC.size * (n_buffers + 1)
    if footer_end != blob_size:
        raise _corrupt(what, f"its index describes {footer_end} bytes, "
                             f"the blob is {blob_size} (truncated, or a "
                             "damaged segment length)")
    return ContainerIndex(
        head=(head_start, head_start + head_len),
        segments=tuple((start, start + length) for start, length in slots),
        footer=(footer_start, footer_end))


class _Restricted(pickle.Unpickler):
    """An unpickler that resolves only the globals it is given, to the
    objects it is given for them; it imports nothing by name."""

    def __init__(self, head, buffers, allowed):
        super().__init__(io.BytesIO(head), buffers=buffers)
        self._allowed = allowed

    def find_class(self, module: str, name: str):
        try:
            return self._allowed[module, name]
        except KeyError:
            raise StoreCorruptedError(
                f"zero-copy container head names the global "
                f"{module}.{name}, which no blob of this kind holds; "
                "refused without loading it") from None


def unpack(payload, zero_copy: bool = False, allowed=None) -> Any:
    """Inverse of :func:`pack`.

    ``payload`` is any buffer (bytes, memoryview, mmap view).  With
    ``zero_copy=True`` the reconstructed arrays are *views into
    payload* — the caller must keep the backing buffer alive for the
    life of the object graph (NumPy arrays hold a reference to their
    buffer, so ordinary refcounting does this automatically).  With
    ``zero_copy=False`` every buffer is copied into a private, writable
    ``bytearray`` first.  Either way the checksum footer is verified:
    :class:`StoreCorruptedError` (an ``UnpicklingError`` subclass)
    names the first mangled segment.

    ``allowed`` (a mapping of ``(module, name)`` pairs to the objects
    they load as) restricts the globals the head may load; any other
    one raises :class:`StoreCorruptedError` before it is imported or
    called.
    ``None`` loads whatever the head names.
    """
    view = memoryview(payload).cast("B")
    if not view.readonly:
        # Zero-copy views must be immutable whatever the caller handed
        # in (pack() itself returns a mutable bytearray); toreadonly()
        # is a flag flip, not a copy.
        view = view.toreadonly()
    index = parse_index(view, view.nbytes)
    head = view[slice(*index.head)]
    buffers = [view[start:end] if zero_copy else bytearray(view[start:end])
               for start, end in index.segments]
    n_buffers = len(buffers)
    crcs = struct.unpack_from(f"<{n_buffers + 1}I", view, index.footer[0])
    if zlib.crc32(head) != crcs[0]:
        raise StoreCorruptedError(
            "zero-copy container head failed checksum "
            f"(stored 0x{crcs[0]:08x}): bit flip or torn write")
    for i, buffer in enumerate(buffers):
        if zlib.crc32(buffer) != crcs[i + 1]:
            raise StoreCorruptedError(
                f"zero-copy container segment {i} of {n_buffers} "
                f"failed checksum (stored 0x{crcs[i + 1]:08x}): "
                "bit flip or torn write")
    if allowed is None:
        return pickle.loads(head, buffers=buffers)
    return _Restricted(head, buffers, allowed).load()
