"""Snapshot of the public API surface.

Locks ``repro.__all__`` and the ``DataStore`` protocol's method set and
parameter names, so a future PR cannot silently rename, drop, or reshape
the facade.  Deliberate API changes must update the snapshots here *and*
the migration table in ``docs/api.md``.

Also runs the package-docstring quickstart as a real doctest — the first
thing a reader tries is executed on every test run.
"""

import doctest
import inspect

import repro
from repro.store import DataStore

# --------------------------------------------------------------------------
# repro.__all__ snapshot
# --------------------------------------------------------------------------
EXPECTED_ALL = {
    "__version__",
    "open",
    "build",
    "open_store",
    "build_store",
    "serving",
    "DataStore",
    "DeepMapping",
    "DeepMappingConfig",
    "LookupResult",
    "SizeReport",
    "MultiKeyDeepMapping",
    "MultiRelationDeepMapping",
    "ShardingConfig",
    "LifecycleConfig",
    "MaintenanceEngine",
    "lookup_range",
    "build_range_view",
    "ColumnTable",
    "Deadline",
    "DeadlineExceeded",
    "RetryPolicy",
    "retry",
    "CircuitBreaker",
    "PartialResult",
    "StoreCorruptedError",
    "StoreNotFoundError",
    "baselines",
    "bench",
    "core",
    "data",
    "lifecycle",
    "nn",
    "resilience",
    "serve",
    "shard",
    "storage",
    "store",
    "testing",
}

# --------------------------------------------------------------------------
# DataStore protocol snapshot: member -> parameter names (None: property)
# --------------------------------------------------------------------------
EXPECTED_DATASTORE = {
    "key_names": None,
    "value_names": None,
    "__len__": ("self",),
    "size_report": ("self",),
    "aux_ratio": ("self",),
    "lookup": ("self", "keys"),
    "lookup_one": ("self", "key_parts"),
    "lookup_async": ("self", "keys", "deadline"),
    "contains_batch": ("self", "keys"),
    "insert": ("self", "rows"),
    "delete": ("self", "keys"),
    "update": ("self", "rows"),
    "rebuild": ("self", "config"),
    "save": ("self", "target"),
    "close": ("self",),
    "__enter__": ("self",),
    "__exit__": ("self", "exc"),
}

# --------------------------------------------------------------------------
# Read entry points past the protocol: member -> parameter names.  The
# error mode is ShardingConfig.on_shard_error, not a per-call keyword.
# --------------------------------------------------------------------------
EXPECTED_READ_PARAMS = {
    (repro.DeepMapping, "lookup"): ("self", "keys", "deadline"),
    (repro.DeepMapping, "lookup_async"): ("self", "keys", "deadline"),
    (repro.DeepMapping, "value_dtype"): ("self", "column"),
    (repro.testing.ChaosStore, "lookup"): ("self", "keys", "deadline"),
    (repro.testing.ChaosStore, "lookup_async"): ("self", "keys", "deadline"),
}


class TestAllSnapshot:
    def test_all_matches_snapshot(self):
        assert set(repro.__all__) == EXPECTED_ALL

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_open_and_build_are_the_facade(self):
        assert repro.open is repro.store.open_store
        assert repro.build is repro.store.build_store

    def test_one_store_class(self):
        assert repro.DeepMapping is repro.shard.DeepMapping
        assert not hasattr(repro, "ShardedDeepMapping")
        assert not hasattr(repro.core, "DeepMapping")


class TestDataStoreSnapshot:
    def test_member_set_matches_snapshot(self):
        declared = {
            name for name, value in vars(DataStore).items()
            if (callable(value) or isinstance(value, property))
            and (not name.startswith("_")
                 or name in ("__len__", "__enter__", "__exit__"))
        }
        assert declared == set(EXPECTED_DATASTORE)

    def test_parameter_names_match_snapshot(self):
        for name, params in EXPECTED_DATASTORE.items():
            member = inspect.getattr_static(DataStore, name)
            if params is None:
                assert isinstance(member, property), name
                continue
            signature = inspect.signature(member)
            assert tuple(signature.parameters) == params, name

    def test_stores_expose_every_member(self, one_shard, sharded):
        for store in (one_shard, sharded):
            assert isinstance(store, DataStore)
            for name in EXPECTED_DATASTORE:
                assert hasattr(store, name), (type(store).__name__, name)


class TestReadParamsSnapshot:
    def test_parameter_names_match_snapshot(self):
        for (owner, name), params in EXPECTED_READ_PARAMS.items():
            signature = inspect.signature(getattr(owner, name))
            assert tuple(signature.parameters) == params, (owner, name)


class TestQuickstartDoctest:
    def test_module_docstring_quickstart_runs(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.attempted >= 4
        assert results.failed == 0
