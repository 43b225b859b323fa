"""One on-disk generation: what every open reads is what ``to_payload``
writes today, and each layout an earlier version wrote is refused with
an error that says how to bring the store forward."""

import os
import pathlib
import pickle
import re
import warnings

import pytest

import repro
from repro.cli import main
from repro.nn import InferenceSession
from repro.resilience import StoreCorruptedError
from repro.shard.manifest import CONFIG_NAME
from repro.shard.persistence import shard_blob_name
from repro.storage import MONOLITHIC_BLOB, InMemoryBackend, zerocopy
from repro.storage.blob_cache import payload_cache
from repro.testing import serve_backend

from .conftest import assert_same_result

SRC = pathlib.Path(repro.__file__).parent


# Retired payload shapes, rebuilt here because no product code writes them.
def unchecksummed_container(mapping):
    """Same index, head and segments; no CRC footer; another magic."""
    payload = bytes(mapping.to_payload())
    footer_start = zerocopy.parse_index(payload, len(payload)).footer[0]
    return b"RZC1" + payload[4:footer_start]


def nested_bytes(mapping):
    """Session and existence index as opaque ``bytes`` inside the head."""
    state = zerocopy.unpack(mapping.to_payload())
    state["aux_v2"] = mapping.aux.to_state()  # re-packable partitions
    state["session"] = pickle.dumps(state.pop("session_v2"))
    state["exist"] = pickle.dumps(state.pop("exist_v2"))
    return zerocopy.pack(state)


def raw_aux_rows(mapping):
    """``T_aux`` as decompressed key and code rows."""
    state = zerocopy.unpack(mapping.to_payload())
    del state["aux_v2"]
    state["aux_keys"], state["aux_codes"] = mapping.aux.scan()
    return zerocopy.pack(state)


def reference_only_config(mapping):
    """The last layout whose config could carry ``compiled_lookup``:
    raw ``T_aux`` rows, with the knob set to its reference-only value."""
    state = zerocopy.unpack(raw_aux_rows(mapping))
    state["config"].__dict__["compiled_lookup"] = False
    return zerocopy.pack(state)


def bare_pickle(mapping):
    """No container at all: the state dict, arrays inline."""
    return pickle.dumps(zerocopy.unpack(raw_aux_rows(mapping)),
                        protocol=pickle.HIGHEST_PROTOCOL)


def pickled_aux_partitions(mapping):
    """``aux_v2`` partitions as compressed pickles of ``{"keys": int64,
    "columns": {...}}`` blocks, with no key-gap widths in the fence."""
    state = zerocopy.unpack(mapping.to_payload())
    aux = mapping.aux.to_state()
    store, partitions = aux["store"], mapping.aux._store
    del store["gap_widths"]
    blocks = [partitions.load_partition(pid)
              for pid in range(len(partitions.partitions))]
    store["partitions"] = [pickle.PickleBuffer(partitions.codec.compress(
        pickle.dumps({"keys": block["keys"],
                      "columns": {name: block[name]
                                  for name in store["columns"]}})))
        for block in blocks]
    state["aux_v2"] = aux
    return zerocopy.pack(state)


#: shape -> (payload builder, what the refusal names, last commit to read it)
RETIRED = {
    "bare-pickle": (bare_pickle, "RZC2 container magic", "b054dba"),
    "no-crc-container": (unchecksummed_container, "RZC2 container magic",
                         "b054dba"),
    "nested-bytes": (nested_bytes, "lacks session_v2, exist_v2", "b054dba"),
    "raw-aux-rows": (raw_aux_rows, "lacks aux_v2", "b054dba"),
    "reference-only-config": (reference_only_config, "lacks aux_v2",
                              "b054dba"),
    "pickled-aux-partitions": (pickled_aux_partitions, "no gap_widths",
                               "dae9259"),
}


@pytest.mark.parametrize("shape", sorted(RETIRED))
def test_retired_shape_is_refused_by_every_open(mono, shape):
    build, names, last_reader = RETIRED[shape]
    backend = InMemoryBackend.named(f"retired-{shape}")
    backend.write_bytes(MONOLITHIC_BLOB, build(mono))

    def opens():
        yield lambda: repro.open(backend.url)
        yield lambda: repro.open(backend.url, writable=False)
        with serve_backend(backend) as server:
            yield lambda: repro.open(server.url)

    try:
        for attempt in opens():
            with pytest.raises(ValueError) as refusal:
                attempt()
            # Not damage: the caches retry StoreCorruptedError in vain.
            assert not isinstance(refusal.value, StoreCorruptedError)
            assert names in str(refusal.value)
            assert f"open and re-save it at commit {last_reader}" \
                in str(refusal.value)
    finally:
        payload_cache().clear()
        InMemoryBackend.discard(backend.name)


def test_unpickling_and_container_internals_stay_in_their_modules():
    """Unpickling happens for the container head, the column section of
    a partition holding objects (the baselines only) and the sharded
    store's ``config.pkl``; the container's underscore names are used by
    nobody else."""
    unpicklers, reach_ins = set(), []
    for path in sorted(SRC.rglob("*.py")):
        module, text = path.relative_to(SRC).as_posix(), path.read_text()
        if re.search(r"\bpickle\.loads?\(", text):
            unpicklers.add(module)
        if module != "storage/zerocopy.py":
            reach_ins += [(module, hit) for hit in re.findall(
                r"zerocopy\._\w+|from \S*zerocopy import [^\n]*\b_\w+", text)]
    assert unpicklers == {"storage/zerocopy.py", "storage/serializer.py",
                          "shard/persistence.py"}
    assert reach_ins == []


def test_the_write_path_runs_one_predictor():
    """Every prediction outside ``repro/testing/`` — lookups, ``T_aux``
    at build and on writes, MHAS's pricing — runs the compiled kernel:
    the stored session has no forward pass, nothing calls one, and the
    only one-hot encode is ``fit``'s training input."""
    assert not hasattr(InferenceSession, "run")
    assert not hasattr(InferenceSession, "run_logits")
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module.startswith("testing/"):
            continue
        calls += [(module, line.strip())
                  for line in path.read_text().splitlines()
                  if re.search(r"session\.run\(|\.run_logits\(|"
                               r"key_encoder\.encode\(", line)]
    assert calls == [("core/deep_mapping.py",
                      "x = key_encoder.encode(flat)")]


def parent_config_payload(mapping):
    """``mapping``'s payload as the parent commit wrote it: the pickled
    config still carries the retired ``inference_batch`` field."""
    state = zerocopy.unpack(mapping.to_payload())
    state["aux_v2"] = mapping.aux.to_state()  # re-packable partitions
    state["config"].__dict__["inference_batch"] = 65536
    return zerocopy.pack(state)


@pytest.mark.parametrize("kind", ["mono", "sharded"])
def test_parent_saved_config_opens_everywhere_and_resaves_without_it(
        request, query_keys, kind):
    store = request.getfixturevalue(kind)
    name = f"parent-config-{kind}-{os.urandom(6).hex()}"
    backend = InMemoryBackend.named(name)
    store.save(backend.url)
    if kind == "mono":
        backend.write_bytes(MONOLITHIC_BLOB, parent_config_payload(store))
    else:
        for ordinal, shard in enumerate(store.shards):
            backend.write_bytes(shard_blob_name(ordinal),
                                parent_config_payload(shard))
        config = pickle.loads(backend.read_bytes(CONFIG_NAME))
        config.__dict__["inference_batch"] = 65536
        backend.write_bytes(CONFIG_NAME, pickle.dumps(
            config, protocol=pickle.HIGHEST_PROTOCOL))
    assert all(b"inference_batch" in backend.read_bytes(blob)
               for blob in backend.list() if blob.endswith((".dm", ".pkl")))
    expected = store.lookup(query_keys)

    def opens():
        yield "writable", repro.open(backend.url)
        yield "read-only", repro.open(backend.url, writable=False)
        with serve_backend(backend) as server:
            yield "http", repro.open(server.url)

    again = InMemoryBackend.named(f"{name}-again")
    try:
        for how, opened in opens():
            assert_same_result(opened.lookup(query_keys), expected,
                               store.value_names)
            if how == "writable":
                opened.save(again.url)
            opened.close()
        assert again.list()
        assert not any(b"inference_batch" in again.read_bytes(blob)
                       for blob in again.list())
    finally:
        payload_cache().clear()
        InMemoryBackend.discard(name)
        InMemoryBackend.discard(again.name)


class TestCliStoreTargets:
    """A bare path is ``file://``, and the CLI says nothing about it."""

    @pytest.mark.parametrize("scheme", ["", "file://"], ids=["path", "url"])
    def test_store_target_opens_silently(
            self, tmp_path, mono, capsys, scheme):
        path = str(tmp_path / "cli.dm")
        mono.save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["info", scheme + path]) == 0
        stdout = capsys.readouterr().out
        assert "model:" in stdout and "total:" in stdout

    def test_missing_store_error_names_schemes(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["info", str(tmp_path / "absent.dm")])
        message = str(excinfo.value)
        for scheme in ("file://", "mem://", "zip://"):
            assert scheme in message

    def test_directory_without_manifest_names_schemes(self, tmp_path):
        bare = tmp_path / "not-a-store"
        bare.mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["query", str(bare), "--key", "key=1"])
        assert "file://" in str(excinfo.value)
