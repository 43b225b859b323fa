"""One on-disk generation: what every open reads is what ``save``
writes today, and each layout an earlier version wrote is refused with
an error that says how to bring the store forward."""

import json
import os
import pathlib
import pickle
import re
import warnings

import pytest

import repro
from repro import DeepMapping, ShardingConfig
from repro.cli import main
from repro.lifecycle import LifecycleConfig
from repro.nn import InferenceSession
from repro.resilience import StoreCorruptedError
from repro.shard.manifest import MANIFEST_NAME, MODEL_NAME
from repro.storage import MONOLITHIC_BLOB, InMemoryBackend, zerocopy
from repro.storage.blob_cache import payload_cache
from repro.testing import serve_backend

from ..core.conftest import fast_config
from .conftest import assert_same_result

SRC = pathlib.Path(repro.__file__).parent

#: The shard blob the retired shapes below replace.
SHARD_BLOB = "shard-0000.dm"


# Retired shard payload shapes, rebuilt here because no product code
# writes them; ``payload`` is the blob a one-shard store saves today.
def unchecksummed_container(store, payload):
    """Same index, head and segments; no CRC footer; another magic."""
    footer_start = zerocopy.parse_index(payload, len(payload)).footer[0]
    return b"RZC1" + payload[4:footer_start]


def raw_aux_rows(store, payload):
    """``T_aux`` as decompressed key and code rows."""
    state = zerocopy.unpack(payload)
    del state["aux_v2"]
    state["aux_keys"], state["aux_codes"] = store.shards[0].aux.scan()
    return zerocopy.pack(state)


def bare_pickle(store, payload):
    """No container at all: the state dict, arrays inline."""
    return pickle.dumps(zerocopy.unpack(raw_aux_rows(store, payload)),
                        protocol=pickle.HIGHEST_PROTOCOL)


def pickled_aux_partitions(store, payload):
    """``aux_v2`` partitions as compressed pickles of ``{"keys": int64,
    "columns": {...}}`` blocks, with no key-gap widths in the fence."""
    state = zerocopy.unpack(payload)
    table = store.shards[0].aux
    aux = table.to_state()
    meta, partitions = aux["store"], table._store
    del meta["gap_widths"]
    blocks = [partitions.load_partition(pid)
              for pid in range(len(partitions.partitions))]
    meta["partitions"] = [pickle.PickleBuffer(partitions.codec.compress(
        pickle.dumps({"keys": block["keys"],
                      "columns": {name: block[name]
                                  for name in meta["columns"]}})))
        for block in blocks]
    state["aux_v2"] = aux
    return zerocopy.pack(state)


#: shape -> (payload builder, what the refusal names, last commit to read it)
RETIRED = {
    "bare-pickle": (bare_pickle, "RZC2 container magic", "b054dba"),
    "no-crc-container": (unchecksummed_container, "RZC2 container magic",
                         "b054dba"),
    "raw-aux-rows": (raw_aux_rows, "lacks aux_v2", "b054dba"),
    "pickled-aux-partitions": (pickled_aux_partitions, "no gap_widths",
                               "dae9259"),
}


@pytest.mark.parametrize("shape", sorted(RETIRED))
def test_retired_shard_shape_is_refused_by_every_open(one_shard, query_keys,
                                                      shape):
    build, names, last_reader = RETIRED[shape]
    backend = InMemoryBackend.named(f"retired-{shape}")
    one_shard.save(backend.url)
    backend.write_bytes(SHARD_BLOB, build(
        one_shard, bytes(backend.read_bytes(SHARD_BLOB))))

    def reads():
        yield lambda: repro.open(backend.url)
        yield lambda: repro.open(backend.url, writable=False)
        with serve_backend(backend) as server:
            # Hydrating: the shard opens on the first routed key.
            yield lambda: repro.open(server.url).lookup(query_keys)

    try:
        for attempt in reads():
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


def monolithic_payload(store):
    """A one-shard store's parts in the single-payload layout the
    monolithic owner wrote up to 41e3f8f: the model part, ``V_exist``,
    ``T_aux`` and the tracker in one container."""
    return zerocopy.pack({**store.model.to_state(),
                          "exist_v2": store.exist.to_state(),
                          "aux_v2": store.shards[0].aux.to_state(),
                          "tracker": store.tracker.to_state()})


def assert_monolithic_refusal(open_it):
    with pytest.raises(ValueError) as refusal:
        open_it()
    assert not isinstance(refusal.value, StoreCorruptedError)
    message = str(refusal.value)
    assert "monolithic" in message and "41e3f8f" in message
    assert "to_table()" in message


def test_a_monolithic_dm_file_is_refused_naming_its_last_reader(
        one_shard, tmp_path):
    path = tmp_path / "orders.dm"
    path.write_bytes(monolithic_payload(one_shard))
    for url in (str(path), f"file://{path}"):
        assert_monolithic_refusal(lambda: repro.open(url))
        assert_monolithic_refusal(lambda: repro.open(url, writable=False))
    with pytest.raises(SystemExit, match="41e3f8f"):
        main(["info", str(path)])


@pytest.mark.parametrize("container", ["mem", "zip", "dir", "http"])
def test_a_container_holding_a_monolithic_payload_is_refused(
        one_shard, tmp_path, container):
    payload = monolithic_payload(one_shard)
    if container == "mem":
        backend = InMemoryBackend.named(f"mono-{os.urandom(6).hex()}")
        url = backend.url
    else:
        directory = tmp_path / "mono"
        url = (f"zip://{tmp_path / 'mono.zip'}" if container == "zip"
               else str(directory))
        backend = repro.storage.backend_for_url(url)
    backend.write_bytes(MONOLITHIC_BLOB, payload)
    try:
        if container == "http":
            with serve_backend(backend) as server:
                assert_monolithic_refusal(lambda: repro.open(server.url))
        else:
            assert_monolithic_refusal(lambda: repro.open(url))
            if container == "zip":  # zip:// omitted: the archive is sniffed
                assert_monolithic_refusal(
                    lambda: repro.open(str(tmp_path / "mono.zip")))
    finally:
        if container == "mem":
            InMemoryBackend.discard(backend.name)


def hash_placed(store, backend):
    """Save ``store`` into ``backend`` as the hash router placed it up
    to 212a3db: same blobs, the manifest's router state rewritten."""
    store.save(backend.url)
    manifest = json.loads(bytes(backend.read_bytes(MANIFEST_NAME)))
    manifest["router"] = {"kind": "hash", "key_names": list(store.key_names),
                          "n_shards": store.n_shards, "seed": 0}
    manifest["sharding"]["strategy"] = "hash"
    backend.write_bytes(MANIFEST_NAME, json.dumps(manifest).encode())


@pytest.mark.parametrize("writable", [True, False])
@pytest.mark.parametrize("container", ["mem", "zip", "dir", "http"])
def test_a_hash_placed_store_is_refused_naming_its_last_reader(
        sharded, tmp_path, container, writable):
    if container in ("mem", "http"):
        backend = InMemoryBackend.named(f"hash-{os.urandom(6).hex()}")
    else:
        backend = repro.storage.backend_for_url(
            f"zip://{tmp_path / 'hash.zip'}" if container == "zip"
            else str(tmp_path / "hash"))
    hash_placed(sharded, backend)
    try:
        if container == "http":
            with serve_backend(backend) as server, \
                    pytest.raises(ValueError) as refusal:
                repro.open(server.url, writable=writable)
        else:
            with pytest.raises(ValueError) as refusal:
                repro.open(backend.url, writable=writable)
    finally:
        payload_cache().clear()
        if container in ("mem", "http"):
            InMemoryBackend.discard(backend.name)
    # Not damage: the caches retry StoreCorruptedError in vain.
    assert not isinstance(refusal.value, StoreCorruptedError)
    message = str(refusal.value)
    assert "hash router" in message and "212a3db" in message
    assert "to_table()" in message


def test_unpickling_and_container_internals_stay_in_their_modules():
    """Unpickling happens for the container head and the column section
    of a partition holding objects (the baselines only); the container's
    underscore names are used by nobody else."""
    unpicklers, reach_ins = set(), []
    for path in sorted(SRC.rglob("*.py")):
        module, text = path.relative_to(SRC).as_posix(), path.read_text()
        if re.search(r"\bpickle\.loads?\(", text):
            unpicklers.add(module)
        if module != "storage/zerocopy.py":
            reach_ins += [(module, hit) for hit in re.findall(
                r"zerocopy\._\w+|from \S*zerocopy import [^\n]*\b_\w+", text)]
    assert unpicklers == {"storage/zerocopy.py", "storage/serializer.py"}
    assert reach_ins == []


def test_payload_loaders_stay_in_core_persistence():
    """One open rule: every loader opens a payload through
    ``repro.core.persistence.open_payload``, so the private steps it is
    made of are named nowhere else."""
    private = re.compile(r"\b(_load_state|_cached|_shard_bundle"
                         r"|_open_part)\b")
    outside = [(path.relative_to(SRC).as_posix(), hit)
               for path in sorted(SRC.rglob("*.py"))
               if path.relative_to(SRC).as_posix() != "core/persistence.py"
               for hit in private.findall(path.read_text())]
    assert outside == []


def test_no_source_file_is_over_800_lines():
    """Each decision gets a module: no file under ``src/repro/`` grows
    past 800 lines."""
    sizes = {path.relative_to(SRC).as_posix():
             len(path.read_text().splitlines())
             for path in sorted(SRC.rglob("*.py"))}
    assert {module: n for module, n in sizes.items() if n > 800} == {}


def test_the_write_path_runs_one_predictor():
    """Every prediction outside ``repro/testing/`` — lookups, ``T_aux``
    at build and on writes, MHAS's pricing — runs the compiled kernel:
    the stored session has no forward pass, nothing calls one, and the
    only one-hot encode is the model fit's training input."""
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
    assert calls == [("core/model.py", "x = key_encoder.encode(flat)")]


@pytest.mark.parametrize("kind", ["one_shard", "sharded"])
def test_parent_saved_config_opens_everywhere_and_resaves_without_it(
        request, query_keys, kind):
    store = request.getfixturevalue(kind)
    name = f"parent-config-{kind}-{os.urandom(6).hex()}"
    backend = InMemoryBackend.named(name)
    # Saved whole, so the shard blobs name the model blob's CRC.
    config = store.model.config
    config.__dict__["inference_batch"] = 65536
    try:
        store.save(backend.url)
    finally:
        del config.__dict__["inference_batch"]
    assert b"inference_batch" in backend.read_bytes(MODEL_NAME)
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


@pytest.fixture(scope="module")
def mutated(api_table):
    """A managed one-shard and a managed 4-shard store, each rebuilt
    once and then updated on every shard, so both tracker counters are
    non-zero."""
    config = fast_config(epochs=5)
    rows = {name: api_table.column(name)[::9] for name in api_table.key}
    rows.update({name: api_table.column(name)[::-9]
                 for name in api_table.value_columns})
    stores = {
        kind: DeepMapping.fit(
            api_table, config,
            ShardingConfig(n_shards=n_shards, lifecycle=LifecycleConfig(
                policy="bytes", retrain_bytes=10**9)))
        for kind, n_shards in (("one_shard", 1), ("sharded", 4))
    }
    for store in stores.values():
        store.rebuild()
        store.update(rows)
    return stores


def saved_fields(backend):
    """The manifest's tracker and lifecycle-config keys."""
    manifest = json.loads(backend.read_bytes(MANIFEST_NAME))
    return set(manifest["lifecycle"]["config"]) | set(manifest["tracker"])


def tracker_counters(store):
    """The store's one tracker."""
    return (store.tracker.bytes_since_build, store.tracker.total_retrains)


@pytest.mark.parametrize("kind", ["one_shard", "sharded"])
def test_parent_saved_tracker_and_manifest_fields_open_and_resave_without_them(
        mutated, query_keys, kind):
    store = mutated[kind]
    counters = tracker_counters(store)
    assert counters[0] > 0 and counters[1] == 1
    name = f"parent-tracker-{kind}-{os.urandom(6).hex()}"
    backend = InMemoryBackend.named(name)
    store.save(backend.url)
    retired = {"threshold_bytes", "ops_since_build", "policy_min_rows",
               "per_shard_mhas", "sizing_reference_rows", "sizing_min_width",
               "sizing_search_rows"}
    manifest = json.loads(backend.read_bytes(MANIFEST_NAME))
    manifest["tracker"].update(threshold_bytes=10**9, ops_since_build=7)
    manifest["lifecycle"]["config"].update(dict.fromkeys(retired, 1))
    backend.write_bytes(MANIFEST_NAME, json.dumps(manifest).encode())
    assert retired <= saved_fields(backend)
    expected = store.lookup(query_keys)

    again = InMemoryBackend.named(f"{name}-again")
    try:
        for writable in (True, False):
            opened = repro.open(backend.url, writable=writable)
            assert_same_result(opened.lookup(query_keys), expected,
                               store.value_names)
            assert tracker_counters(opened) == counters
            if writable:
                opened.save(again.url)
            opened.close()
        assert not retired & saved_fields(again)
        assert tracker_counters(repro.open(again.url)) == counters
    finally:
        payload_cache().clear()
        InMemoryBackend.discard(name)
        InMemoryBackend.discard(again.name)


class TestCliStoreTargets:
    """A bare path is ``file://``, and the CLI says nothing about it."""

    @pytest.mark.parametrize("scheme", ["", "file://"], ids=["path", "url"])
    def test_store_target_opens_silently(
            self, tmp_path, one_shard, capsys, scheme):
        path = str(tmp_path / "cli.dms")
        one_shard.save(path)
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
