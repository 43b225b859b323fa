"""A store's payloads and their opens: the one module that knows them.

Every payload is one :mod:`repro.storage.zerocopy` container.  A store
(:mod:`repro.shard.persistence` lays out the container) writes its one
model once (:func:`model_payload`, :meth:`Model.to_state
<repro.core.model.Model.to_state>`), its one ``V_exist`` once
(:func:`exist_payload`) and ``T_aux`` per shard (:func:`shard_payload`),
the last two bound to the model blob by that blob's CRC
(:func:`blob_crc`).  :func:`open_payload` is the one rule for how a
shard opens — a private writable copy, or shared read-only through the
payload cache — and :func:`open_model` and :func:`open_exist` open the
model and the index by the same rule.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

import numpy as np

from ..resilience.errors import StoreCorruptedError
from ..storage import zerocopy
from ..storage.backends import read_blob_view
from ..storage.blob_cache import payload_cache
from ..storage.buffer_pool import BufferPool
from ..storage.stats import StoreStats
from .config import DeepMappingConfig
from .deep_mapping import Shard, new_aux
from .exist_index import existence_from_state
from .mhas.search_space import MHASConfig
from .model import Model

__all__ = ["model_payload", "exist_payload", "shard_payload", "blob_crc",
           "open_payload", "open_model", "open_exist"]


# ----------------------------------------------------------------------
# Write
# ----------------------------------------------------------------------
def model_payload(model: Model) -> bytearray:
    """A store's model blob: the model part alone."""
    return zerocopy.pack(model.to_state())


def blob_crc(payload) -> int:
    """CRC-32 of a whole blob: what binds the existence and shard blobs
    to their model blob, and the manifest to both model and index."""
    return zlib.crc32(memoryview(payload).cast("B"))


def exist_payload(exist, model_crc: int) -> bytearray:
    """A store's existence blob: its one ``V_exist`` and the
    :func:`blob_crc` of the model blob whose key domain it indexes."""
    return zerocopy.pack({"exist_v2": exist.to_state(),
                          "model_crc": model_crc})


def shard_payload(shard: Shard, model_crc: int) -> bytearray:
    """A store's shard blob: ``T_aux`` alone (the store's model
    and existence blobs hold the rest once) and the :func:`blob_crc` of
    the model blob it was materialized under — ``T_aux`` holds exactly
    the rows *that* model loses, so the shard must never open under
    another."""
    return zerocopy.pack({"aux_v2": shard.aux.to_state(),
                          "model_crc": model_crc})


# ----------------------------------------------------------------------
# Read
# ----------------------------------------------------------------------
_MODEL_SEGMENTS = ("session_v2",)
_EXIST_SEGMENTS = ("exist_v2",)
_SHARD_SEGMENTS = ("aux_v2",)


#: NumPy's array rebuild around an out-of-band buffer.  A head names it
#: by the path of the NumPy that wrote it (``numpy.core.numeric`` under
#: 1.x, ``numpy._core.numeric`` under 2.x); both load as this NumPy's.
_FROMBUFFER = np.arange(1).__reduce_ex__(5)[0]

#: The only globals a store blob's head may load, each to the object it
#: resolves to: the array rebuild, its dtype, and the model's build
#: config (with the search settings it carries when a build passed
#: ``search=``; both are plain dataclasses, rebuilt without a call).
#: Anything else in a head is refused before it is imported, so opening
#: a store runs no code its blobs name.
_STORE_GLOBALS = {("numpy.core.numeric", "_frombuffer"): _FROMBUFFER,
                  ("numpy._core.numeric", "_frombuffer"): _FROMBUFFER,
                  ("numpy", "dtype"): np.dtype,
                  ("repro.core.config", "DeepMappingConfig"):
                      DeepMappingConfig,
                  ("repro.core.mhas.search_space", "MHASConfig"): MHASConfig}


def _load_state(payload, required, zero_copy: bool = False,
                blob: str = "payload") -> Dict[str, object]:
    """Payload bytes/view -> state dict, for the layouts this module
    writes; ``required`` names the segments the caller's shape needs.
    A head naming a global outside :data:`_STORE_GLOBALS` raises
    :class:`~repro.resilience.errors.StoreCorruptedError` naming
    ``blob``.

    Anything else is refused with a ``ValueError`` — not
    :class:`~repro.resilience.errors.StoreCorruptedError`: the bytes
    are intact, so the caches' re-read would change nothing.
    """
    if not zerocopy.is_packed(payload):
        raise _unsupported_layout(
            "it does not start with the RZC2 container magic (bare "
            "pickles and containers without checksums are no longer "
            "read)")
    try:
        state = zerocopy.unpack(payload, zero_copy=zero_copy,
                                allowed=_STORE_GLOBALS)
    except StoreCorruptedError as exc:
        raise StoreCorruptedError(f"{blob}: {exc}") from None
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


def _shard_bundle(state, model: Model, pool: Optional[BufferPool],
                  stats: StoreStats) -> Dict[str, object]:
    """The ``T_aux`` a shard blob's state describes, *attached*: the
    compressed partitions in ``aux_v2`` (views into the payload mapping
    on a read-only open, the private copy's segments on a writable one)
    become the table's partitions as they are, and the first probe of
    one decompresses it straight out of the payload — no sort, no
    compression, no temporary file."""
    aux = new_aux(model, pool, stats)
    aux.attach(state["aux_v2"])
    return {"aux": aux, "model_crc": state.get("model_crc")}


def open_payload(backend, blob: str, *, writable: bool, model: Model,
                 model_crc: int, exist, n_rows: int,
                 pool: Optional[BufferPool] = None,
                 stats: Optional[StoreStats] = None) -> Shard:
    """Open shard blob ``blob`` of ``backend`` — the one open rule.

    The blob holds ``T_aux`` materialized under the store's ``model``
    and must name ``model_crc``, the CRC of that model's blob
    (:class:`~repro.resilience.errors.StoreCorruptedError` otherwise);
    the shard reads the store's index ``exist`` and counts ``n_rows``
    live keys.

    A remote backend (which refuses writes) or ``writable=False`` gets a
    shared read-only open through the payload cache
    (:func:`_cached`): the partitions are attached as views into the
    pinned payload, so the cold open writes nothing and creates no
    file, and they are *shared* with any other store wrapping the same
    bundle; only the stats sink is per open.  Safe because the store
    refuses mutations (``writable=False``) and all shared read paths
    are thread-safe.  Anything else reads the payload whole into a
    private, mutable copy.
    """
    stats = stats if stats is not None else StoreStats()
    shared = not writable or getattr(backend, "remote", False)
    if shared:
        bundle = _cached(backend, blob, lambda view: _shard_bundle(
            _load_state(view, _SHARD_SEGMENTS, zero_copy=True, blob=blob),
            model,
            pool, StoreStats()))
    else:
        with stats.timing("io"):
            state = _load_state(backend.read_bytes(blob), _SHARD_SEGMENTS,
                                blob=blob)
        bundle = _shard_bundle(state, model, pool, stats)
    if bundle["model_crc"] != model_crc:
        raise StoreCorruptedError(
            f"{blob} was saved under another model than the one this "
            "store opened (a save cut short, or a blob published by "
            "another save); its T_aux would answer for the wrong model")
    shard = Shard(model, bundle["aux"], exist, stats, n_rows)
    if shared:
        # Pin the bundle (and through it any mmap view backing its
        # arrays) for this shard's lifetime, independent of eviction.
        shard._shared_bundle = bundle
    return shard


def _open_part(backend, blob: str, writable: bool, crc: int, what: str,
               build) -> Dict[str, object]:
    """The bundle ``build(payload, zero_copy)`` makes of a store's
    model or existence blob, by the rule of
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
    """Open a store's model blob (:func:`model_payload`) by the
    rule of :func:`open_payload`: a private copy when writable, else one
    model shared through the payload cache; either way its lookup
    kernel is compiled before the open returns (:func:`_open_part`
    checks ``crc``)."""
    def build(payload, zero_copy: bool):
        model = Model.from_state(
            _load_state(payload, _MODEL_SEGMENTS, zero_copy=zero_copy,
                        blob=blob))
        model.compiled_session()
        return {"model": model}
    bundle = _open_part(backend, blob, writable, crc, "model", build)
    if "payload_view" in bundle:
        # The model pins the bundle whose view its arrays reference.
        bundle["model"]._shared_bundle = bundle
    return bundle["model"]


def open_exist(backend, blob: str, *, writable: bool, crc: int,
               model_crc: int):
    """Open a store's existence blob (:func:`exist_payload`) by
    the rule of :func:`open_model`: a private, mutable copy when
    writable, else one index shared through the payload cache whose
    arrays are read-only views of the mapping.  The blob must be the
    one the manifest names (``crc``) and name the model the store
    opened (``model_crc``), or
    :class:`~repro.resilience.errors.StoreCorruptedError` is raised."""
    def build(payload, zero_copy: bool):
        state = _load_state(payload, _EXIST_SEGMENTS, zero_copy=zero_copy,
                            blob=blob)
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


def _unsupported_layout(found: str,
                        last_reader: str = "b054dba") -> ValueError:
    return ValueError(
        "this payload does not hold a DeepMapping store in the one layout "
        f"this version reads: {found}. If it is a store saved by an older "
        f"version, open and re-save it at commit {last_reader}, the last "
        "one that reads that layout.")
