"""A DeepMapping's payload and its opens: the one module that knows them.

:func:`to_payload` / :func:`save` write ``M``, ``T_aux``, ``V_exist``
and ``f_decode`` as one :mod:`repro.storage.zerocopy` container.
:func:`open_payload` is the one rule for how a payload opens — a
private writable copy, or shared read-only through the payload cache —
and every loader calls it: :meth:`DeepMapping.open` (via :func:`load`),
:func:`repro.open` and :mod:`repro.shard.persistence`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..data.encoding import CompositeKeyCodec, DecodeMap, KeyEncoder
from ..nn.compiled import CompiledSession
from ..nn.inference import InferenceSession
from ..storage import zerocopy
from ..storage.backends import read_blob_view, resolve_blob_url
from ..storage.blob_cache import payload_cache
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from .aux_table import AuxiliaryTable
from .deep_mapping import DeepMapping
from .exist_index import existence_from_state

__all__ = ["to_payload", "save", "from_payload", "open_payload", "load"]

#: The components a structure is constructed from.
_ASSEMBLED = ("key_codec", "key_encoder", "session", "aux", "exist",
              "fdecode", "config", "dataset_bytes")


# ----------------------------------------------------------------------
# Write
# ----------------------------------------------------------------------
def to_payload(mapping: DeepMapping) -> bytearray:
    """Serialize the full hybrid structure to one byte payload.

    The payload is a :mod:`repro.storage.zerocopy` container: the
    pickled state plus out-of-band, 64-byte-aligned, CRC-checked
    buffer segments for **every** array — vocabularies, codec
    domains, the model weights and existence bit-vector
    (``session_v2`` / ``exist_v2``), and ``T_aux`` the way the paper
    stores it (``aux_v2``): one segment per *compressed* partition,
    exactly the bytes :meth:`AuxiliaryTable.stored_bytes` counts,
    beside a small fence index in the head (first key, last key, row
    count and key-gap width per partition; column names and dtypes;
    see :func:`~repro.storage.partition.encode_partition`) and the
    not-yet-compacted overlay / tombstones as arrays.  Nothing is
    decompressed, re-sorted or re-compressed to save, and an open
    attaches the partitions where they lie.  Opened through an
    mmap-capable backend with ``writable=False``, all of it
    materializes as views over shared pages instead of copies — the
    cold open is pure mmap.  This is the only layout any open reads
    (see :func:`_load_state`).
    """
    state = {
        "config": mapping.config,
        "key_codec": mapping.key_codec.to_state(),
        "key_encoder": mapping.key_encoder.to_state(),
        "session_v2": mapping.session.to_state(),
        "exist_v2": mapping.exist.to_state(),
        "fdecode": mapping.fdecode.to_state(),
        "aux_v2": mapping.aux.to_state(),
        "dataset_bytes": mapping._dataset_bytes,
        # Sec. IV-D lazy-update state: without this a loaded store
        # would restart the retrain threshold from zero every reopen.
        "tracker": mapping.tracker.to_state(),
    }
    return zerocopy.pack(state)


def save(mapping: DeepMapping, target: str) -> int:
    """Persist ``mapping`` to a path or ``file:// / mem:// / zip://``
    URL; returns bytes written.

    A filesystem path / ``file://`` URL names the payload file itself;
    ``mem://`` and ``zip://`` targets are containers and store the
    payload under :data:`~repro.storage.backends.MONOLITHIC_BLOB`.  The
    write is atomic on every backend, and the process-wide payload cache
    entry for the target is invalidated so later ``writable=False``
    opens never serve the retired content.
    """
    backend, blob = resolve_blob_url(str(target))
    written = backend.write_bytes(blob, to_payload(mapping))
    payload_cache().invalidate(backend, blob)
    return written


# ----------------------------------------------------------------------
# Read
# ----------------------------------------------------------------------
def _load_state(payload, zero_copy: bool = False) -> Dict[str, object]:
    """Payload bytes/view -> state dict, for the one layout
    :func:`to_payload` writes.

    Anything else is refused with a ``ValueError`` — not
    :class:`~repro.resilience.errors.StoreCorruptedError`: the bytes
    are intact, so the caches' re-read would change nothing.
    """
    if not zerocopy.is_packed(payload):
        raise _unsupported_layout(
            "it does not start with the RZC2 container magic (bare "
            "pickles and containers without checksums are no longer "
            "read)")
    state = zerocopy.unpack(payload, zero_copy=zero_copy)
    missing = [key for key in ("session_v2", "exist_v2", "aux_v2")
               if key not in state]
    if missing:
        raise _unsupported_layout(
            f"it lacks {', '.join(missing)} (nested session / exist "
            "bytes and raw aux_keys / aux_codes rows are no longer "
            "read)")
    if "gap_widths" not in state["aux_v2"]["store"]:
        raise _unsupported_layout(
            "its aux_v2 partitions are pickled blocks of int64 keys "
            "(no gap_widths fence; they are no longer read)",
            last_reader="dae9259")
    return state


def _components_from_state(state: Dict[str, object],
                           pool: Optional[BufferPool],
                           stats: StoreStats) -> Dict[str, object]:
    """Materialize the shared components a payload state describes.

    ``T_aux`` is *attached*: the compressed partitions in ``aux_v2``
    (views into the payload mapping on a read-only open, the private
    copy's segments on a writable one) become the table's partitions
    as they are, and the first probe of one decompresses it straight
    out of the payload — no sort, no compression, no temporary file.
    """
    config = state["config"]
    fdecode = DecodeMap.from_state(state["fdecode"])
    aux = AuxiliaryTable(
        tasks=fdecode.columns,
        codec=config.aux_codec,
        target_partition_bytes=config.aux_partition_bytes,
        pool=pool,
        stats=stats,
        auto_compact_rows=config.aux_auto_compact_rows,
    )
    aux.attach(state["aux_v2"])
    return {
        "config": config,
        "key_codec": CompositeKeyCodec.from_state(state["key_codec"]),
        "key_encoder": KeyEncoder.from_state(state["key_encoder"]),
        "session": InferenceSession.from_state(state["session_v2"]),
        "aux": aux,
        "exist": existence_from_state(state["exist_v2"]),
        "fdecode": fdecode,
        "dataset_bytes": state["dataset_bytes"],
        "tracker": state["tracker"],
    }


def _assemble(components: Dict[str, object],
              stats: Optional[StoreStats]) -> DeepMapping:
    mapping = DeepMapping(stats=stats, **{
        name: components[name] for name in _ASSEMBLED})
    mapping.tracker.restore_counters(components["tracker"])
    return mapping


def from_payload(payload, pool: Optional[BufferPool] = None,
                 stats: Optional[StoreStats] = None) -> DeepMapping:
    """Inverse of :func:`to_payload` (private, writable copies)."""
    stats = stats if stats is not None else StoreStats()
    return _assemble(
        _components_from_state(_load_state(payload), pool, stats), stats)


def _open_shared(backend, blob: str,
                 stats: Optional[StoreStats] = None,
                 pool: Optional[BufferPool] = None) -> DeepMapping:
    """Read-only open through the process-wide payload cache.

    Cold path: the payload is read as a zero-copy view (mmap'd on
    ``file://`` backends), deserialized once, its lookup kernel
    compiled, and the whole bundle cached under the blob's version
    stamp — the stamp the cache took is handed to the read, so a
    backend that revalidates per read does not ask again.  The
    auxiliary partitions are attached as views into the pinned payload
    (see :func:`_components_from_state`), so the cold open writes
    nothing and creates no file.  Warm path: the cached bundle is
    wrapped directly — no I/O, no deserialization, no recompile.

    Every heavy artifact — session, compiled engine, auxiliary
    partitions, existence vector, decode map — is *shared* with any
    other store wrapping the same bundle; only per-instance state
    (stats sink, tracker, executor) is fresh.  Safe because the
    returned structure refuses mutations (``writable=False``) and all
    shared read paths are thread-safe.
    """
    def loader(version):
        view = read_blob_view(backend, blob, version=version)
        state = _load_state(view, zero_copy=True)
        bundle = _components_from_state(state, pool, StoreStats())
        # Hold the payload view explicitly: zero-copy arrays
        # reference it, and the bundle must outlive any of them.
        bundle["payload_view"] = view
        bundle["compiled"] = CompiledSession(bundle["session"],
                                             bundle["key_encoder"])
        return bundle, view.nbytes
    bundle = payload_cache().get(backend, blob, loader)
    mapping = _assemble(bundle, stats)
    mapping.writable = False
    mapping._compiled = bundle["compiled"]
    # Pin the bundle (and through it any mmap view backing its arrays)
    # for this structure's lifetime, independent of cache eviction.
    mapping._shared_bundle = bundle
    return mapping


def open_payload(backend, blob: str, *, writable: bool,
                 pool: Optional[BufferPool] = None,
                 stats: Optional[StoreStats] = None) -> DeepMapping:
    """Open payload ``blob`` of ``backend`` — the one open rule.

    A remote backend (which refuses writes) or ``writable=False`` gets a
    shared read-only open through the payload cache (:func:`_open_shared`;
    mutating calls raise ``PermissionError``).  Anything else reads the
    payload whole into a private, mutable copy.  Either way the lookup
    kernel is compiled before the open returns.
    """
    if not writable or getattr(backend, "remote", False):
        return _open_shared(backend, blob, stats=stats, pool=pool)
    stats = stats if stats is not None else StoreStats()
    with stats.timing("io"):
        payload = backend.read_bytes(blob)
    mapping = from_payload(payload, pool=pool, stats=stats)
    mapping.compiled_session()
    return mapping


def load(target: str, pool: Optional[BufferPool] = None,
         stats: Optional[StoreStats] = None,
         writable: bool = True) -> DeepMapping:
    """Open the payload :func:`save` wrote at a path or URL, by the
    rule of :func:`open_payload`: ``writable=False``, or any remote
    target (``http://`` / ``https://`` / ``cached+http://``), gives a
    read-only structure shared through the payload cache."""
    backend, blob = resolve_blob_url(str(target), create=False)
    return open_payload(backend, blob, writable=writable, pool=pool,
                        stats=stats)


def _unsupported_layout(found: str,
                        last_reader: str = "b054dba") -> ValueError:
    return ValueError(
        "this payload does not hold a DeepMapping store in the one layout "
        f"this version reads: {found}. If it is a store saved by an older "
        f"version, open and re-save it at commit {last_reader}, the last "
        "one that reads that layout.")
