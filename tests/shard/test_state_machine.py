"""Model-based test of the store: a dict is the specification.

One hypothesis ``RuleBasedStateMachine`` drives a writable range-sharded
store with a lifecycle-free config through inserts (into gaps and past
the leading key's max, near it or 10**6 past it), deletes, updates,
``rebuild``, ``split_shard``, ``merge_shards`` and save -> reopen on
``file://``, ``mem://`` and ``zip://`` (both writable and
``writable=False``).  It runs twice: from a 3-shard store, and from a
default ``DeepMapping.fit`` store (one shard, which a split turns into
more).  After every step it checks that:

- found-mask and values are bit-identical to the dict, on live keys and
  on misses (deleted keys, gaps, keys outside the domain);
- ``len(store)`` is the dict's size, and the store's one ``V_exist``
  (``store.exist``) holds exactly the dict's keys, so a deleted key is a
  miss at the existence stage alone;
- the live counts kept as rows change are the rows held:
  ``shard_row_counts()`` is a recount by routing the index's keys, and
  ``len(shard.aux)`` what a scan of its ``T_aux`` finds (on a read-only
  reopen too);
- each shard's ``T_aux`` scan is exactly the live rows of its window
  that ``store.model.encode`` marks lost, keys and codes alike — what
  lets a split or merge move rows instead of re-encoding them;
- a save's manifest round-trips through JSON and records those counts;
- a lookup through a ``store._topology`` snapshot taken before the last
  split, merge or retrain returns what it returned then.

The ``tier1`` profile keeps the run well under a minute; set
``REPRO_HYPOTHESIS_PROFILE=soak`` for the seeded long run CI's chaos
step makes.
"""

import itertools
import os
import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

import repro
from repro.data import synthetic
from repro.shard import DeepMapping, ShardingConfig
from repro.shard.manifest import ShardManifest
from repro.storage import InMemoryBackend, backend_for_url, payload_cache

from ..core.conftest import fast_config

settings.register_profile(
    "tier1", max_examples=20, stateful_step_count=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "soak", max_examples=1500, stateful_step_count=30, deadline=None,
    derandomize=True, suppress_health_check=[HealthCheck.too_slow])
PROFILE = settings.get_profile(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "tier1"))

ROWS = 400
_COUNTER = itertools.count()
_BASE = {}

#: The sharding of each machine's base store: ``None`` is the default.
SHARDINGS = {
    "sharded": lambda: ShardingConfig(n_shards=3,
                                      executor="serial"),
    "default": lambda: None,
}


def _table():
    return synthetic.single_column(ROWS, "high", seed=11, domain_factor=2.0)


def _base_store_url(kind: str) -> str:
    """One fit per process and kind, saved to ``mem://``; every example
    opens a private writable copy of it."""
    if kind not in _BASE:
        table = _table()
        store = DeepMapping.fit(table, fast_config(epochs=4),
                                SHARDINGS[kind]())
        url = f"mem://state-machine-base-{kind}"
        store.save(url)
        store.close()
        _BASE[kind] = url
    return _BASE[kind]


def _base_rows():
    if "rows" not in _BASE:
        table = _table()
        _BASE["rows"] = dict(zip(table.column("key").tolist(),
                                 table.column("value").tolist()))
        _BASE["vocab"] = sorted(set(_BASE["rows"].values()))
    return _BASE["rows"]


def _check_index(store, live) -> None:
    """The store's index against the dict's keys ``live``, and the O(1)
    live counts against a recount of what each shard holds."""
    flat = store.exist.existing_keys()
    np.testing.assert_array_equal(
        flat, np.sort(store.model.key_codec.flatten(
            {"key": np.array(sorted(live), dtype=np.int64)})))
    keys = store.model.key_codec.unflatten(flat)
    owners = store.router.route(keys)
    assert store.shard_row_counts() == np.bincount(
        owners, minlength=store.n_shards).tolist()
    values = np.array([live[k] for k in keys["key"].tolist()],
                      dtype=store.value_dtype("value"))
    _, labels, lost = store.model.encode(dict(keys, value=values), flat)
    for ordinal, shard in enumerate(store.shards):
        if shard is not None:
            assert shard.exist is store.exist
            held, codes = shard.aux.scan()
            assert len(shard.aux) == held.size
            # The model never changes on a write, so T_aux is exactly
            # the live rows of the shard's window the model loses.
            mine = (owners == ordinal) & lost
            np.testing.assert_array_equal(held, flat[mine])
            np.testing.assert_array_equal(codes["value"],
                                          labels["value"][mine])


def _route_lookup(router, shards, keys: np.ndarray):
    """Found mask and values per key through one topology's own router
    and shards — what a reader holding that snapshot is answered."""
    found = np.zeros(keys.size, dtype=bool)
    values = np.full(keys.size, "", dtype=object)
    ids = router.route({"key": keys})
    for ordinal, shard in enumerate(shards):
        rows = np.flatnonzero(ids == ordinal)
        if shard is None or rows.size == 0:
            continue
        result = shard.plan_lookup({"key": keys[rows]}).execute()
        found[rows] = result.found
        values[rows[result.found]] = result.values["value"][result.found]
    return found, values


class ShardedStoreMachine(RuleBasedStateMachine):
    #: Which base store (:data:`SHARDINGS`) an example starts from.
    KIND = "sharded"

    def __init__(self):
        super().__init__()
        self.store = repro.open(_base_store_url(self.KIND))
        self.model = dict(_base_rows())
        self.ever = set(self.model)
        self.snapshot = None  # (router, shards, keys, found, values)
        self.scratch = None  # directory of this example's file/zip saves
        self.mem_names = []  # this example's mem:// containers

    # -- helpers ---------------------------------------------------------
    def _value(self, draw_index: int, fresh: bool) -> str:
        vocab = _BASE["vocab"]
        if fresh:
            return f"new-{draw_index % 97}"
        return vocab[draw_index % len(vocab)]

    def _leading_max(self) -> int:
        return max(self.ever)

    def _take_snapshot(self) -> None:
        router, _, shards, *_ = self.store._topology
        keys = np.array(sorted(self.ever) + [-5, max(self.ever) + 50],
                        dtype=np.int64)
        found, values = _route_lookup(router, shards, keys)
        self.snapshot = (router, shards, keys, found, values)

    # -- rules -------------------------------------------------------------
    @rule(data=st.data(), n=st.integers(1, 12), fresh=st.booleans())
    def insert_in_gap(self, data, n, fresh):
        # Drawn from the whole range, not a list of its gaps: after a
        # far append the range spans millions of keys.
        picks = data.draw(st.lists(st.integers(0, self._leading_max() - 1),
                                   min_size=1, max_size=n, unique=True))
        picks = [k for k in picks if k not in self.model]
        if not picks:
            return
        keys = np.array(sorted(picks), dtype=np.int64)
        values = np.array([self._value(int(k), fresh) for k in keys])
        self.store.insert({"key": keys, "value": values})
        for k, v in zip(keys.tolist(), values.tolist()):
            self.model[k] = v
            self.ever.add(k)

    # A gap of 10**6 takes the tail window past the dense bounds, so it
    # turns sparse (and every later split, merge, retrain and reopen
    # meets a sparse window).
    @rule(n=st.integers(1, 10),
          gap=st.one_of(st.integers(1, 5), st.just(10**6)),
          fresh=st.booleans())
    def insert_past_max(self, n, gap, fresh):
        start = self._leading_max() + gap
        keys = np.arange(start, start + n, dtype=np.int64)
        values = np.array([self._value(int(k), fresh) for k in keys])
        self.store.insert({"key": keys, "value": values})
        for k, v in zip(keys.tolist(), values.tolist()):
            self.model[k] = v
            self.ever.add(k)

    @precondition(lambda self: len(self.model) > 8)
    @rule(data=st.data(), n=st.integers(1, 15))
    def delete(self, data, n):
        live = sorted(self.model)
        picks = data.draw(st.lists(st.sampled_from(live), min_size=1,
                                   max_size=n, unique=True))
        keys = np.array(picks + [-7], dtype=np.int64)  # one absent key
        assert self.store.delete({"key": keys}) == len(picks)
        for k in picks:
            del self.model[k]

    @precondition(lambda self: len(self.model) > 0)
    @rule(data=st.data(), n=st.integers(1, 15), fresh=st.booleans())
    def update(self, data, n, fresh):
        live = sorted(self.model)
        picks = data.draw(st.lists(st.sampled_from(live), min_size=1,
                                   max_size=n, unique=True))
        keys = np.array(sorted(picks), dtype=np.int64)
        values = np.array([self._value(int(k) + 3, fresh) for k in keys])
        self.store.update({"key": keys, "value": values})
        for k, v in zip(keys.tolist(), values.tolist()):
            self.model[k] = v

    @rule()
    def rebuild(self):
        self._take_snapshot()
        self.store.rebuild()

    @rule(data=st.data())
    def split(self, data):
        splittable = [i for i in range(self.store.n_shards)
                      if self.store.can_split(i)]
        if not splittable or self.store.n_shards >= 8:
            return
        self._take_snapshot()
        self.store.split_shard(data.draw(st.sampled_from(splittable)))

    @precondition(lambda self: self.store.n_shards > 1)
    @rule(data=st.data())
    def merge(self, data):
        self._take_snapshot()
        self.store.merge_shards(
            data.draw(st.integers(0, self.store.n_shards - 2)))

    @rule(scheme=st.sampled_from(["file", "mem", "zip"]),
          writable=st.booleans())
    def save_reopen(self, scheme, writable):
        name = f"state-machine-{next(_COUNTER)}"
        if scheme == "mem":
            url = f"mem://{name}"
            self.mem_names.append(name)
        else:
            if self.scratch is None:
                self.scratch = tempfile.mkdtemp(prefix="repro-machine-")
            path = os.path.join(self.scratch, name)
            url = f"zip://{path}.zip" if scheme == "zip" else f"file://{path}"
        self.store.save(url)
        manifest = ShardManifest.load_from(backend_for_url(url, create=False))
        assert ShardManifest.from_json(manifest.to_json()) == manifest
        assert [entry.n_rows for entry in manifest.shards] == \
            self.store.shard_row_counts()
        reopened = repro.open(url, writable=writable)
        if writable:
            self.store.close()
            self.store = reopened
            return
        try:
            self._check_against_model(reopened)
        finally:
            reopened.close()

    # -- invariants --------------------------------------------------------
    def _probe_keys(self) -> np.ndarray:
        top = self._leading_max()
        extra = [-3, top + 1, top + 1000, 10**12]
        return np.array(sorted(self.ever) + extra, dtype=np.int64)

    def _check_against_model(self, store) -> None:
        keys = self._probe_keys()
        result = store.lookup({"key": keys})
        expected_found = np.array([int(k) in self.model for k in keys])
        np.testing.assert_array_equal(result.found, expected_found)
        values = result.values["value"]
        dtype = store.value_dtype("value")
        assert values.dtype == dtype
        expected = np.array([self.model.get(int(k), "") for k in keys],
                            dtype=dtype)
        np.testing.assert_array_equal(values, expected)
        assert len(store) == len(self.model)
        _check_index(store, self.model)

    @invariant()
    def matches_model(self):
        self._check_against_model(self.store)

    @invariant()
    def snapshot_answers_as_before(self):
        if self.snapshot is None:
            return
        router, shards, keys, found, values = self.snapshot
        again_found, again_values = _route_lookup(router, shards, keys)
        np.testing.assert_array_equal(again_found, found)
        np.testing.assert_array_equal(again_values[found], values[found])
        self.snapshot = None

    def teardown(self):
        # Free what this example saved: a soak run makes thousands.
        self.store.close()
        payload_cache().clear()
        for name in self.mem_names:
            InMemoryBackend.discard(name)
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


class DefaultStoreMachine(ShardedStoreMachine):
    """The same rules from a default (one-shard) store."""

    KIND = "default"


ShardedStoreMachine.TestCase.settings = PROFILE
TestShardedStoreMachine = ShardedStoreMachine.TestCase
DefaultStoreMachine.TestCase.settings = PROFILE
TestDefaultStoreMachine = DefaultStoreMachine.TestCase
