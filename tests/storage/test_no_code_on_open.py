"""Opening a store runs no code its blobs name.

Every blob's head is a pickle, and a pickle may name any importable
callable.  An open loads only NumPy's array rebuild and dtype and the
model's build config (with its search settings, when a build passed
``search=``); a head naming any other global
is refused with ``StoreCorruptedError`` naming the blob, before the
global is imported or called, on every backend.  A partition index that
declares a pickled column section is refused the same way.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.data import synthetic
from repro.resilience import StoreCorruptedError
from repro.shard import DeepMapping, ShardingConfig
from repro.storage import LocalDirBackend, backend_for_url, zerocopy
from repro.storage.blob_cache import payload_cache
from repro.testing import serve_backend

from ..core.conftest import fast_config

#: Tags of every recording global that ran.
RAN = []


def record(tag):
    RAN.append(tag)
    return tag


class Recording:
    """Pickles as a call to :func:`record`."""

    def __reduce__(self):
        return record, ("a blob's global ran",)


@pytest.fixture(scope="module")
def store():
    table = synthetic.single_column(300, "high", seed=4)
    return DeepMapping.fit(table, fast_config(epochs=2),
                           ShardingConfig(n_shards=2))


def planted_model(store, tmp_path):
    """The store's model blob with one more entry, naming
    :func:`record`."""
    store.save(str(tmp_path / "clean"))
    clean = LocalDirBackend(str(tmp_path / "clean"), create=False)
    state = zerocopy.unpack(clean.read_bytes("model.rzc"))
    state["extra"] = Recording()
    return bytes(zerocopy.pack(state))


@pytest.mark.parametrize("scheme", ["file", "zip", "mem", "http"])
def test_a_blob_naming_another_global_is_refused(store, tmp_path, scheme):
    planted = planted_model(store, tmp_path)
    RAN.clear()
    payload_cache().clear()
    if scheme == "http":
        path = str(tmp_path / "served")
        store.save(path)
        LocalDirBackend(path, create=False).write_bytes("model.rzc",
                                                        planted)
        with serve_backend(LocalDirBackend(path, create=False)) as server:
            with pytest.raises(StoreCorruptedError,
                               match=r"model\.rzc.*record"):
                repro.open(server.url)
    else:
        url = {"file": f"file://{tmp_path / 'store'}",
               "zip": f"zip://{tmp_path / 'store.zip'}",
               "mem": f"mem://no-code-{tmp_path.name}"}[scheme]
        store.save(url)
        backend_for_url(url).write_bytes("model.rzc", planted)
        for writable in (True, False):
            with pytest.raises(StoreCorruptedError,
                               match=r"model\.rzc.*record"):
                repro.open(url, writable=writable)
    payload_cache().clear()
    assert RAN == []


def test_a_pickled_column_section_is_refused(store, tmp_path):
    path = str(tmp_path / "store")
    store.save(path)
    backend = LocalDirBackend(path, create=False)
    name = "shard-0000.dm"
    state = zerocopy.unpack(backend.read_bytes(name))
    index = state["aux_v2"]["store"]
    index["dtypes"] = [np.dtype(object).str] * len(index["dtypes"])
    index["partitions"] = [bytes(blob) for blob in index["partitions"]]
    backend.write_bytes(name, bytes(zerocopy.pack(state)))
    payload_cache().clear()
    with pytest.raises(StoreCorruptedError, match="pickled column section"):
        repro.open(path)


def test_a_store_built_with_search_settings_opens(tmp_path):
    # Its build config carries an MHASConfig, which the model blob
    # pickles: a fourth global the open admits, so such a store (and
    # one saved before the open was restricted) still opens, unchanged.
    from repro.core.mhas.search_space import MHASConfig
    table = synthetic.single_column(300, "high", seed=4)
    built = DeepMapping.fit(table, fast_config(epochs=2,
                                               search=MHASConfig()),
                            ShardingConfig(n_shards=2))
    path = str(tmp_path / "store")
    built.save(path)
    payload_cache().clear()
    loaded = repro.open(path, writable=False)
    assert isinstance(loaded.model.config.search, MHASConfig)
    keys = {"key": table.column("key")}
    np.testing.assert_array_equal(loaded.lookup(keys).found,
                                  built.lookup(keys).found)
    payload_cache().clear()


@pytest.mark.parametrize("writer_path", ["numpy.core.numeric",
                                         "numpy._core.numeric"])
def test_a_store_saved_under_either_numpy_path_opens(store, tmp_path,
                                                     monkeypatch,
                                                     writer_path):
    # NumPy 1.x pickles its array rebuild as numpy.core.numeric's,
    # NumPy 2.x as numpy._core.numeric's: a store saved under either
    # opens under this NumPy, and the open imports neither path (under
    # NumPy 2 the 1.x one warns on import).
    rebuild = np.arange(1).__reduce_ex__(5)[0]
    path = str(tmp_path / "store")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        monkeypatch.setattr(rebuild, "__module__", writer_path)
        store.save(path)
        monkeypatch.undo()
    head = LocalDirBackend(path, create=False).read_bytes("model.rzc")
    other = ({"numpy.core.numeric", "numpy._core.numeric"}
             - {writer_path}).pop()
    assert writer_path.encode() in head and other.encode() not in head
    keys = {"key": np.arange(-5, 400, dtype=np.int64)}
    expected = store.lookup(keys)
    for writable in (True, False):
        payload_cache().clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = repro.open(path, writable=writable)
        got = loaded.lookup(keys)
        np.testing.assert_array_equal(got.found, expected.found)
        for name, column in expected.values.items():
            np.testing.assert_array_equal(got.values[name], column)
    payload_cache().clear()
