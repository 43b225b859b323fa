"""`repro.open(url, writable=False)`: shared read-only opens.

Covers the cache/mmap lifetime rules: component sharing across warm
opens, mutation refusal, invalidation after ``save`` (including a
lifecycle split), mmap view validity across re-saves, and bit-identical
results vs the writable open.
"""

import numpy as np
import pytest

import repro
from repro.shard import ShardingConfig
from repro.storage import payload_cache
from repro.testing.oracles import barrier_lookup

from ..core.conftest import fast_config
from .conftest import assert_same_result


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from bundles cached by its neighbours."""
    payload_cache().clear()
    yield
    payload_cache().clear()


@pytest.fixture()
def one_shard_url(tmp_path, api_table):
    store = repro.build(api_table, fast_config(epochs=4),
                        url=str(tmp_path / "m.dms"))
    return str(tmp_path / "m.dms"), store


@pytest.fixture()
def sharded_url(tmp_path, api_table):
    store = repro.build(api_table, fast_config(epochs=4),
                        sharding=ShardingConfig(n_shards=3),
                        url=str(tmp_path / "store"))
    return str(tmp_path / "store"), store


class TestOneShardReadOnly:
    def test_parity_with_writable_open(self, one_shard_url, query_keys):
        url, original = one_shard_url
        readonly = repro.open(url, writable=False)
        assert_same_result(readonly.lookup(query_keys),
                           original.lookup(query_keys),
                           original.value_names)

    def test_warm_open_shares_components(self, one_shard_url):
        url, _ = one_shard_url
        first = repro.open(url, writable=False)
        second = repro.open(url, writable=False)
        assert first.model.session is second.model.session
        assert first.shards[0].aux is second.shards[0].aux
        assert first.exist is second.exist
        assert (first.model.compiled_session()
                is second.model.compiled_session())
        assert payload_cache().hits >= 1

    def test_writable_open_stays_private(self, one_shard_url):
        url, _ = one_shard_url
        readonly = repro.open(url, writable=False)
        writable = repro.open(url)
        assert writable.model.session is not readonly.model.session
        assert writable.writable and not readonly.writable

    def test_mutations_refused(self, one_shard_url, api_table):
        url, _ = one_shard_url
        readonly = repro.open(url, writable=False)
        row = {name: np.array([api_table.column(name)[0]])
               for name in readonly.key_names + readonly.value_names}
        with pytest.raises(PermissionError):
            readonly.insert(row)
        with pytest.raises(PermissionError):
            readonly.delete({n: np.array([0]) for n in readonly.key_names})
        with pytest.raises(PermissionError):
            readonly.update(row)
        with pytest.raises(PermissionError):
            readonly.rebuild()

    def test_payload_arrays_are_readonly_views(self, one_shard_url):
        url, _ = one_shard_url
        readonly = repro.open(url, writable=False)
        for task in readonly.value_names:
            vocab = readonly.model.fdecode.encoders[task].vocab
            assert not vocab.flags.writeable

    def test_save_invalidates_cache(self, one_shard_url, query_keys,
                                    api_table):
        url, original = one_shard_url
        stale = repro.open(url, writable=False)
        # Mutate through a writable handle and re-save in place.
        writable = repro.open(url)
        live = {n: np.asarray(api_table.column(n)[:5])
                for n in writable.key_names}
        writable.delete(live)
        writable.save(url)
        fresh = repro.open(url, writable=False)
        assert fresh.model.session is not stale.model.session
        assert_same_result(fresh.lookup(query_keys),
                           writable.lookup(query_keys),
                           writable.value_names)

    def test_views_stay_valid_across_resave(self, one_shard_url, query_keys):
        """The mmap'd payload outlives an os.replace of its file: a
        store opened before a re-save keeps answering (with the content
        it was opened on) across many lookups."""
        url, original = one_shard_url
        readonly = repro.open(url, writable=False)
        before = readonly.lookup(query_keys)
        writable = repro.open(url)
        live = {n: np.asarray([readonly.model.key_codec.unflatten(
            readonly.exist.existing_keys()[:1])[n][0]])
            for n in readonly.key_names}
        writable.delete(live)
        writable.save(url)  # atomic replace under the old mapping
        for _ in range(3):
            assert_same_result(readonly.lookup(query_keys), before,
                               readonly.value_names)

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro.open(str(tmp_path / "absent.dm"), writable=False)


class TestShardedReadOnly:
    def test_parity_with_writable_open(self, sharded_url, query_keys):
        url, original = sharded_url
        readonly = repro.open(url, writable=False)
        assert_same_result(readonly.lookup(query_keys),
                           original.lookup(query_keys),
                           original.value_names)
        assert_same_result(barrier_lookup(readonly, query_keys),
                           original.lookup(query_keys),
                           original.value_names)

    def test_warm_open_shares_shard_bundles(self, sharded_url):
        url, _ = sharded_url
        first = repro.open(url, writable=False)
        second = repro.open(url, writable=False)
        for a, b in zip(first.shards, second.shards):
            if a is not None:
                assert a.aux is b.aux
                assert a.model is b.model is first.model

    def test_mutations_refused(self, sharded_url, api_table):
        url, _ = sharded_url
        readonly = repro.open(url, writable=False)
        with pytest.raises(PermissionError):
            readonly.delete({n: np.array([0]) for n in readonly.key_names})
        with pytest.raises(PermissionError):
            readonly.rebuild()
        with pytest.raises(PermissionError):
            readonly.split_shard(0)
        with pytest.raises(PermissionError):
            readonly.merge_shards(0)

    def test_save_after_split_invalidates(self, tmp_path, api_table,
                                          query_keys):
        """A lifecycle split changes the topology and the blob set; the
        re-save must retire every cached bundle for the container."""
        url = str(tmp_path / "store")
        store = repro.build(api_table, fast_config(epochs=4),
                            sharding=ShardingConfig(n_shards=2), url=url)
        stale = repro.open(url, writable=False)
        assert len(payload_cache()) > 0
        store.split_shard(0)
        store.save(url)
        fresh = repro.open(url, writable=False)
        assert fresh.n_shards == store.n_shards == 3
        assert_same_result(fresh.lookup(query_keys),
                           store.lookup(query_keys), store.value_names)
        # The pre-split handle still answers from its own (old) bundles.
        assert stale.n_shards == 2
        assert_same_result(stale.lookup(query_keys),
                           store.lookup(query_keys), store.value_names)

    def test_async_lookup_on_readonly(self, sharded_url, query_keys):
        url, original = sharded_url
        readonly = repro.open(url, writable=False)
        assert_same_result(readonly.lookup_async(query_keys).result(),
                           original.lookup(query_keys),
                           original.value_names)
        readonly.close()


class TestOtherBackends:
    @pytest.mark.parametrize("scheme", ["mem", "zip"])
    def test_container_backends_roundtrip(self, scheme, tmp_path,
                                          api_table, query_keys):
        url = (f"mem://readonly-{id(api_table):x}" if scheme == "mem"
               else f"zip://{tmp_path}/store.zip")
        store = repro.build(api_table, fast_config(epochs=4), url=url)
        readonly = repro.open(url, writable=False)
        assert_same_result(readonly.lookup(query_keys),
                           store.lookup(query_keys), store.value_names)
        again = repro.open(url, writable=False)
        assert again.model.session is readonly.model.session
        with pytest.raises(PermissionError):
            again.rebuild()
