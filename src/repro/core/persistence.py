"""A DeepMapping's payloads and their opens: the one module that knows them.

Every payload is one :mod:`repro.storage.zerocopy` container cut from
three parts: the **model part** (:meth:`Model.to_state
<repro.core.model.Model.to_state>`), ``V_exist`` (``exist_v2``) and
``T_aux`` (``aux_v2``).  A monolithic structure (:func:`to_payload`)
holds all three and its tracker; a sharded store writes the model part
once (:func:`model_payload`), its one ``V_exist`` once
(:func:`exist_payload`) and ``T_aux`` per shard (:func:`shard_payload`),
the last two bound to the model blob by that blob's CRC
(:func:`blob_crc`).  :func:`open_payload` is the one rule for how a
structure opens — a private writable copy, or shared read-only through
the payload cache — behind :meth:`DeepMapping.open`, :func:`repro.open`
and :mod:`repro.shard.persistence` (which opens the store's model and
index by the same rule, :func:`open_model` and :func:`open_exist`).
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

from ..resilience.errors import StoreCorruptedError
from ..storage import zerocopy
from ..storage.backends import read_blob_view, resolve_blob_url
from ..storage.blob_cache import payload_cache
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from .aux_table import AuxiliaryTable
from .deep_mapping import DeepMapping
from .exist_index import existence_from_state
from .model import Model
from .modify import ModificationTracker

__all__ = ["to_payload", "save", "model_payload", "exist_payload",
           "shard_payload", "blob_crc", "from_payload", "open_payload",
           "open_model", "open_exist", "load"]


# ----------------------------------------------------------------------
# Write
# ----------------------------------------------------------------------
def to_payload(mapping: DeepMapping) -> bytearray:
    """Serialize a whole monolithic structure to one byte payload.

    The container holds the pickled state plus out-of-band,
    64-byte-aligned, CRC-checked buffer segments for **every** array.
    ``T_aux`` is stored the way the paper stores it: one segment per
    *compressed* partition, exactly the bytes
    :meth:`AuxiliaryTable.stored_bytes` counts, beside a small fence
    index in the head (see :func:`~repro.storage.partition.encode_partition`)
    and the not-yet-compacted overlay / tombstones as arrays.  Nothing is
    re-sorted or re-compressed to save, an open attaches the partitions
    where they lie, and a ``writable=False`` open through an
    mmap-capable backend is pure mmap.
    """
    state = {
        **mapping.model.to_state(),
        "exist_v2": mapping.exist.to_state(),
        "aux_v2": mapping.aux.to_state(),
        # Sec. IV-D lazy-update state (none on a shard): without this a
        # loaded store would restart the retrain threshold every reopen.
        "tracker": (mapping.tracker or ModificationTracker()).to_state(),
    }
    return zerocopy.pack(state)


def model_payload(model: Model) -> bytearray:
    """A sharded store's model blob: the model part alone."""
    return zerocopy.pack(model.to_state())


def blob_crc(payload) -> int:
    """CRC-32 of a whole blob: what binds the existence and shard blobs
    to their model blob, and the manifest to both model and index."""
    return zlib.crc32(memoryview(payload).cast("B"))


def exist_payload(exist, model_crc: int) -> bytearray:
    """A sharded store's existence blob: its one ``V_exist`` and the
    :func:`blob_crc` of the model blob whose key domain it indexes."""
    return zerocopy.pack({"exist_v2": exist.to_state(),
                          "model_crc": model_crc})


def shard_payload(mapping: DeepMapping, model_crc: int) -> bytearray:
    """A sharded store's shard blob: ``T_aux`` alone (the store's model
    and existence blobs hold the rest once) and the :func:`blob_crc` of
    the model blob it was materialized under — ``T_aux`` holds exactly
    the rows *that* model loses, so the shard must never open under
    another."""
    return zerocopy.pack({"aux_v2": mapping.aux.to_state(),
                          "model_crc": model_crc})


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
_MODEL_SEGMENTS = ("session_v2",)
_EXIST_SEGMENTS = ("exist_v2",)
_SHARD_SEGMENTS = ("aux_v2",)


def _load_state(payload, required, zero_copy: bool = False
                ) -> Dict[str, object]:
    """Payload bytes/view -> state dict, for the layouts this module
    writes; ``required`` names the segments the caller's shape needs.

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
    missing = [key for key in required if key not in state]
    if missing:
        raise _unsupported_layout(
            f"it lacks {', '.join(missing)} (nested session / exist "
            "bytes and raw aux_keys / aux_codes rows are no longer "
            "read)")
    if "aux_v2" in required and "gap_widths" not in state["aux_v2"]["store"]:
        raise _unsupported_layout(
            "its aux_v2 partitions are pickled blocks of int64 keys "
            "(no gap_widths fence; they are no longer read)",
            last_reader="dae9259")
    return state


def _required(model: Optional[Model]):
    """The segments a payload needs: a shard blob opened under a given
    ``model`` only ``T_aux``, anything else all three parts."""
    return (_SHARD_SEGMENTS if model
            else _MODEL_SEGMENTS + _EXIST_SEGMENTS + _SHARD_SEGMENTS)


def _parts(state: Dict[str, object], model: Optional[Model],
           pool: Optional[BufferPool],
           stats: StoreStats) -> Dict[str, object]:
    """The model (``model``, or the payload's own), ``T_aux``, ``V_exist``
    (``None`` in a shard blob) and tracker counters a payload state
    describes.

    ``T_aux`` is *attached*: the compressed partitions in ``aux_v2``
    (views into the payload mapping on a read-only open, the private
    copy's segments on a writable one) become the table's partitions
    as they are, and the first probe of one decompresses it straight
    out of the payload — no sort, no compression, no temporary file.
    """
    model = model or Model.from_state(state)
    aux = AuxiliaryTable(
        tasks=model.fdecode.columns,
        codec=model.config.aux_codec,
        target_partition_bytes=model.config.aux_partition_bytes,
        pool=pool,
        stats=stats,
        auto_compact_rows=model.config.aux_auto_compact_rows,
    )
    aux.attach(state["aux_v2"])
    return {"model": model, "aux": aux,
            "exist": (existence_from_state(state["exist_v2"])
                      if "exist_v2" in state else None),
            "tracker": state.get("tracker"),
            "model_crc": state.get("model_crc")}


def _assemble(parts: Dict[str, object], stats: Optional[StoreStats],
              model: Optional[Model] = None,
              model_crc: Optional[int] = None,
              blob: str = "the payload", exist=None,
              n_rows: Optional[int] = None) -> DeepMapping:
    """The structure ``parts`` describe; a shard blob (given ``model``,
    the store's ``exist`` and the shard's ``n_rows``) must name
    ``model_crc``, the CRC of the model blob it opens under."""
    if model is not None and parts["model_crc"] != model_crc:
        raise StoreCorruptedError(
            f"{blob} was saved under another model than the one this "
            "store opened (a save cut short, or a blob published by "
            "another save); its T_aux would answer for the wrong model")
    mapping = DeepMapping(model or parts["model"], parts["aux"],
                          parts["exist"] if exist is None else exist,
                          stats=stats,
                          tracker=None if model else ModificationTracker(),
                          n_rows=n_rows)
    if parts["tracker"] is not None:  # a monolithic payload's counters
        mapping.tracker.restore_counters(parts["tracker"])
    return mapping


def from_payload(payload, pool: Optional[BufferPool] = None,
                 stats: Optional[StoreStats] = None) -> DeepMapping:
    """Inverse of :func:`to_payload` (private, writable copies)."""
    stats = stats if stats is not None else StoreStats()
    state = _load_state(payload, _required(None))
    return _assemble(_parts(state, None, pool, stats), stats)


def _cached(backend, blob: str, build) -> Dict[str, object]:
    """The bundle ``build(view)`` makes of ``blob``'s zero-copy view
    (mmap'd on ``file://``), made once per blob version through the
    payload cache — read under the stamp the cache took, so a backend
    that revalidates per read does not ask again.  The bundle holds the
    view its arrays reference; a warm open does no I/O and no work."""
    def loader(version):
        view = read_blob_view(backend, blob, version=version)
        bundle = build(view)
        bundle["payload_view"] = view
        return bundle, view.nbytes
    return payload_cache().get(backend, blob, loader)


def _open_shared(backend, blob: str, stats: Optional[StoreStats],
                 pool: Optional[BufferPool], model: Optional[Model],
                 model_crc: Optional[int], exist,
                 n_rows: Optional[int]) -> DeepMapping:
    """Read-only open through the payload cache (:func:`_cached`).

    The partitions are attached as views into the pinned payload, so
    the cold open writes nothing and creates no file.  Every heavy
    artifact — model, partitions, existence vector — is *shared* with
    any other store wrapping the same bundle (a shard's existence vector
    is its store's, opened by :func:`open_exist`); only per-instance state
    (stats sink, tracker, executor) is fresh.  Safe because the
    returned structure refuses mutations (``writable=False``) and all
    shared read paths are thread-safe.
    """
    def build(view):
        parts = _parts(_load_state(view, _required(model), zero_copy=True),
                       model, pool, StoreStats())
        parts["model"].compiled_session()
        return parts
    bundle = _cached(backend, blob, build)
    mapping = _assemble(bundle, stats, model, model_crc, blob, exist, n_rows)
    mapping.writable = False
    # Pin the bundle (and through it any mmap view backing its arrays)
    # for this structure's lifetime, independent of cache eviction.
    mapping._shared_bundle = bundle
    return mapping


def open_payload(backend, blob: str, *, writable: bool,
                 pool: Optional[BufferPool] = None,
                 stats: Optional[StoreStats] = None,
                 model: Optional[Model] = None,
                 model_crc: Optional[int] = None,
                 exist=None, n_rows: Optional[int] = None) -> DeepMapping:
    """Open payload ``blob`` of ``backend`` — the one open rule.

    Without ``model`` the blob is a monolithic payload; with it, a
    shard blob materialized under the store's model, which must name
    ``model_crc``, the CRC of that model's blob
    (:class:`~repro.resilience.errors.StoreCorruptedError` otherwise);
    the shard reads the store's index ``exist`` and counts ``n_rows``
    live keys.
    A remote backend (which refuses writes) or ``writable=False`` gets a
    shared read-only open through the payload cache
    (:func:`_open_shared`; mutating calls raise ``PermissionError``).
    Anything else reads the payload whole into a private, mutable copy.
    Either way the lookup kernel is compiled before the open returns.
    """
    if not writable or getattr(backend, "remote", False):
        return _open_shared(backend, blob, stats, pool, model, model_crc,
                            exist, n_rows)
    stats = stats if stats is not None else StoreStats()
    with stats.timing("io"):
        state = _load_state(backend.read_bytes(blob), _required(model))
    mapping = _assemble(_parts(state, model, pool, stats), stats, model,
                        model_crc, blob, exist, n_rows)
    mapping.compiled_session()
    return mapping


def _open_part(backend, blob: str, writable: bool, crc: int, what: str,
               build) -> Dict[str, object]:
    """The bundle ``build(payload, zero_copy)`` makes of a sharded
    store's model or existence blob, by the rule of
    :func:`open_payload`: from a private copy when writable, else once
    per blob version through the payload cache (the bundle then holds
    the ``payload_view`` its arrays reference).  A blob whose
    :func:`blob_crc` is not ``crc`` (the manifest's) raises
    :class:`~repro.resilience.errors.StoreCorruptedError` — also when
    its bytes hold no layout this module reads (an empty blob, or
    another blob copied in its place): they are not the bytes the
    manifest names, so there is no older layout to migrate from."""
    def checked(payload, zero_copy: bool) -> Dict[str, object]:
        actual = blob_crc(payload)
        try:
            bundle = build(payload, zero_copy)
        except StoreCorruptedError:
            raise
        except ValueError as exc:
            if actual == crc:
                raise
            raise not_named() from exc
        return {**bundle, "crc": actual}

    def not_named() -> StoreCorruptedError:
        return StoreCorruptedError(
            f"{blob} is not the {what} the manifest names (a save cut "
            "short, or a blob published by another save)")

    if writable and not getattr(backend, "remote", False):
        bundle = checked(backend.read_bytes(blob), False)
    else:
        bundle = _cached(backend, blob, lambda view: checked(view, True))
    if bundle["crc"] != crc:
        raise not_named()
    return bundle


def open_model(backend, blob: str, *, writable: bool, crc: int) -> Model:
    """Open a sharded store's model blob (:func:`model_payload`) by the
    rule of :func:`open_payload`: a private copy when writable, else one
    model shared through the payload cache, its kernel compiled once
    (:func:`_open_part` checks ``crc``)."""
    def build(payload, zero_copy: bool):
        model = Model.from_state(
            _load_state(payload, _MODEL_SEGMENTS, zero_copy=zero_copy))
        if zero_copy:
            model.compiled_session()
        return {"model": model}
    bundle = _open_part(backend, blob, writable, crc, "model", build)
    if "payload_view" in bundle:
        # The model pins the bundle whose view its arrays reference.
        bundle["model"]._shared_bundle = bundle
    return bundle["model"]


def open_exist(backend, blob: str, *, writable: bool, crc: int,
               model_crc: int):
    """Open a sharded store's existence blob (:func:`exist_payload`) by
    the rule of :func:`open_model`: a private, mutable copy when
    writable, else one index shared through the payload cache whose
    arrays are read-only views of the mapping.  The blob must be the
    one the manifest names (``crc``) and name the model the store
    opened (``model_crc``), or
    :class:`~repro.resilience.errors.StoreCorruptedError` is raised."""
    def build(payload, zero_copy: bool):
        state = _load_state(payload, _EXIST_SEGMENTS, zero_copy=zero_copy)
        return {"exist": existence_from_state(state["exist_v2"]),
                "model_crc": state.get("model_crc")}
    bundle = _open_part(backend, blob, writable, crc, "existence index",
                        build)
    if bundle["model_crc"] != model_crc:
        raise StoreCorruptedError(
            f"{blob} was saved under another model than the one this "
            "store opened; it indexes another key domain")
    if "payload_view" in bundle:
        # The index pins the bundle whose view its arrays reference.
        bundle["exist"]._shared_bundle = bundle
    return bundle["exist"]


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
