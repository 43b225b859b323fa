"""Tests for the auxiliary accuracy-assurance table T_aux."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StoreCorruptedError
from repro.core import AuxiliaryTable
from repro.storage import zerocopy


def build_aux(n=500, codec="zstd", partition=2048):
    rng = np.random.default_rng(13)
    keys = np.sort(rng.choice(10_000, size=n, replace=False)).astype(np.int64)
    codes = {
        "a": rng.integers(0, 5, size=n),
        "b": rng.integers(0, 50, size=n),
    }
    aux = AuxiliaryTable(("a", "b"), codec=codec, target_partition_bytes=partition)
    aux.build(keys, codes)
    return aux, keys, codes


class TestBuildAndLookup:
    def test_all_rows_found(self):
        aux, keys, codes = build_aux()
        found, got = aux.lookup_batch(keys)
        assert found.all()
        np.testing.assert_array_equal(got["a"], codes["a"])
        np.testing.assert_array_equal(got["b"], codes["b"])

    def test_missing_keys_not_found(self):
        aux, keys, _ = build_aux()
        probe = np.setdiff1d(np.arange(10_000), keys)[:100]
        found, _ = aux.lookup_batch(probe)
        assert not found.any()

    def test_len(self):
        aux, keys, _ = build_aux(n=300)
        assert len(aux) == 300

    def test_empty_build(self):
        aux = AuxiliaryTable(("a",))
        aux.build(np.empty(0, dtype=np.int64), {"a": np.empty(0, dtype=np.int64)})
        assert len(aux) == 0
        found, _ = aux.lookup_batch(np.array([1, 2]))
        assert not found.any()

    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            AuxiliaryTable(())

    def test_codes_stored_with_minimal_dtype(self):
        aux, _, _ = build_aux()
        # Cardinality 5 / 50 codes must round-trip exactly despite narrowing.
        keys, codes = aux.scan()
        assert codes["a"].max() < 5
        assert codes["b"].max() < 50

    @pytest.mark.parametrize("codec", ["none", "zstd", "lzma"])
    def test_codecs(self, codec):
        aux, keys, codes = build_aux(codec=codec)
        found, got = aux.lookup_batch(keys[:50])
        assert found.all()
        np.testing.assert_array_equal(got["b"], codes["b"][:50])


class TestMutations:
    def test_add_new_key(self):
        aux, keys, _ = build_aux()
        new_key = np.array([10_001], dtype=np.int64)
        aux.add_batch(new_key, {"a": np.array([4]), "b": np.array([44])})
        found, got = aux.lookup_batch(new_key)
        assert found[0]
        assert got["a"][0] == 4 and got["b"][0] == 44

    def test_add_overwrites_existing(self):
        aux, keys, _ = build_aux()
        aux.add_batch(keys[:1], {"a": np.array([4]), "b": np.array([44])})
        found, got = aux.lookup_batch(keys[:1])
        assert found[0] and got["b"][0] == 44

    def test_remove_partition_row(self):
        aux, keys, _ = build_aux()
        aux.remove_batch(keys[:3])
        found, _ = aux.lookup_batch(keys[:3])
        assert not found.any()
        assert len(aux) == len(keys) - 3

    def test_remove_overlay_row(self):
        aux, keys, _ = build_aux()
        new_key = np.array([10_002], dtype=np.int64)
        aux.add_batch(new_key, {"a": np.array([1]), "b": np.array([1])})
        aux.remove_batch(new_key)
        found, _ = aux.lookup_batch(new_key)
        assert not found[0]

    def test_remove_absent_is_noop(self):
        aux, keys, _ = build_aux()
        aux.remove_batch(np.array([99_999], dtype=np.int64))
        assert len(aux) == len(keys)

    def test_update_compacting_midway_counts_its_rows(self):
        # The removal half compacts (threshold 3), so the add half must
        # not count against the partitions the table had before it.
        aux = AuxiliaryTable(("v",), auto_compact_rows=3)
        aux.build(np.arange(4), {"v": np.zeros(4, dtype=np.int64)})
        aux.add_batch(np.array([10]), {"v": np.array([1])})
        aux.remove_batch(np.array([3]))
        aux.update_batch(np.array([0, 10, 3]), {"v": np.array([0, 5, 6])},
                         np.array([False, True, True]))
        found, got = aux.lookup_batch(np.arange(11))
        assert np.flatnonzero(found).tolist() == [1, 2, 3, 10]
        assert got["v"][[3, 10]].tolist() == [6, 5]
        assert len(aux) == 4

    def test_readd_after_remove(self):
        aux, keys, _ = build_aux()
        aux.remove_batch(keys[:1])
        aux.add_batch(keys[:1], {"a": np.array([2]), "b": np.array([22])})
        found, got = aux.lookup_batch(keys[:1])
        assert found[0] and got["b"][0] == 22


class TestCompaction:
    def test_compact_preserves_content(self):
        aux, keys, codes = build_aux(n=200)
        aux.remove_batch(keys[:10])
        aux.add_batch(np.array([20_000], dtype=np.int64),
                      {"a": np.array([3]), "b": np.array([33])})
        before_keys, before_codes = aux.scan()
        aux.compact()
        after_keys, after_codes = aux.scan()
        np.testing.assert_array_equal(before_keys, after_keys)
        np.testing.assert_array_equal(before_codes["b"], after_codes["b"])

    def test_compact_clears_overlay(self):
        aux, keys, _ = build_aux(n=200)
        aux.add_batch(np.array([20_000], dtype=np.int64),
                      {"a": np.array([0]), "b": np.array([0])})
        aux.compact()
        assert len(aux._overlay) == 0
        found, _ = aux.lookup_batch(np.array([20_000]))
        assert found[0]

    def test_compact_empty_is_noop(self):
        aux, _, _ = build_aux(n=50)
        bytes_before = aux.stored_bytes()
        aux.compact()
        assert aux.stored_bytes() == bytes_before


class TestAccounting:
    def test_stored_bytes_includes_overlay(self):
        aux, keys, _ = build_aux(n=200)
        base = aux.stored_bytes()
        aux.add_batch(np.arange(30_000, 30_200, dtype=np.int64),
                      {"a": np.zeros(200, dtype=np.int64),
                       "b": np.zeros(200, dtype=np.int64)})
        assert aux.stored_bytes() > base

    def test_lzma_smaller_than_none(self):
        plain, _, _ = build_aux(n=2000, codec="none")
        packed, _, _ = build_aux(n=2000, codec="lzma")
        assert packed.stored_bytes() < plain.stored_bytes()

    def test_partition_count_scales(self):
        few, _, _ = build_aux(n=2000, partition=64 * 1024)
        many, _, _ = build_aux(n=2000, partition=1024)
        assert many.partition_count > few.partition_count


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_aux_matches_dict_model_under_random_ops(data):
    """Property: T_aux behaves like a dict under add/remove/update
    batches (an update keeps the ``lost`` rows and drops the others)."""
    rng_keys = st.integers(min_value=0, max_value=200)
    initial = data.draw(st.lists(rng_keys, min_size=1, max_size=40, unique=True))
    initial = np.array(sorted(initial), dtype=np.int64)
    compact_at = data.draw(st.sampled_from([4, 4096]))
    aux = AuxiliaryTable(("v",), target_partition_bytes=256,
                         auto_compact_rows=compact_at)
    aux.build(initial, {"v": initial % 7})
    model = {int(k): int(k) % 7 for k in initial}

    ops = data.draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "remove", "update"]),
                      st.lists(st.tuples(rng_keys,
                                         st.integers(min_value=0, max_value=6),
                                         st.booleans()),
                               min_size=1, max_size=6,
                               unique_by=lambda row: row[0])),
            max_size=30,
        )
    )
    for op, rows in ops:
        keys = np.array([key for key, _, _ in rows], dtype=np.int64)
        values = {"v": np.array([value for _, value, _ in rows],
                                dtype=np.int64)}
        lost = np.array([kept for _, _, kept in rows])
        if op == "add":
            aux.add_batch(keys, values)
            model.update((key, value) for key, value, _ in rows)
        elif op == "remove":
            aux.remove_batch(keys)
            for key, _, _ in rows:
                model.pop(key, None)
        else:
            aux.update_batch(keys, values, lost)
            for key, value, kept in rows:
                if kept:
                    model[key] = value
                else:
                    model.pop(key, None)
        assert len(aux) == len(model)

    probe = np.arange(201, dtype=np.int64)
    found, codes = aux.lookup_batch(probe)
    for key in range(201):
        if key in model:
            assert found[key]
            assert codes["v"][key] == model[key]
        else:
            assert not found[key]
    assert len(aux) == len(model)


# ---------------------------------------------------------------------------
# scan() / compact(): the array merge against the per-row dict it replaced
# ---------------------------------------------------------------------------
def scan_by_dict(aux):
    """The row-by-row merge ``scan`` and ``compact`` used to run: every
    partition row into a dict unless tombstoned, the overlay on top,
    keys sorted.  Kept as the oracle for the array merge."""
    keys, columns = aux._store.scan()
    merged = {
        int(k): tuple(int(columns[t][i]) for t in aux.tasks)
        for i, k in enumerate(keys)
        if int(k) not in aux._tombstones
    }
    merged.update(aux._overlay)
    out_keys = np.array(sorted(merged), dtype=np.int64)
    codes = {
        t: np.array([merged[k][j] for k in out_keys.tolist()], dtype=np.int64)
        for j, t in enumerate(aux.tasks)
    }
    return out_keys, codes


def assert_rows_equal(got, expected):
    (got_keys, got_codes), (keys, codes) = got, expected
    assert got_keys.dtype == keys.dtype and got_keys.shape == keys.shape
    np.testing.assert_array_equal(got_keys, keys)
    assert list(got_codes) == list(codes)
    for task in codes:
        assert got_codes[task].dtype == codes[task].dtype
        assert got_codes[task].shape == codes[task].shape
        np.testing.assert_array_equal(got_codes[task], codes[task])


aux_keys = st.integers(min_value=-50, max_value=300)
aux_rows = st.lists(
    st.tuples(aux_keys, st.integers(0, 2**40), st.integers(0, 200)),
    max_size=60, unique_by=lambda row: row[0])


def rows_to_arrays(rows):
    return (np.array([r[0] for r in rows], dtype=np.int64),
            {"a": np.array([r[1] for r in rows], dtype=np.int64),
             "b": np.array([r[2] for r in rows], dtype=np.int64)})


@st.composite
def mutated_aux(draw):
    """A table with random partitions, overlay and tombstones."""
    aux = AuxiliaryTable(
        ("a", "b"), codec=draw(st.sampled_from(["none", "zstd"])),
        target_partition_bytes=draw(st.sampled_from([1, 200, 4096])),
        auto_compact_rows=10_000)
    aux.build(*rows_to_arrays(draw(aux_rows)))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            aux.add_batch(*rows_to_arrays(draw(aux_rows)))
        else:
            aux.remove_batch(np.array(draw(st.lists(aux_keys, max_size=20)),
                                      dtype=np.int64))
    return aux


@settings(max_examples=60, deadline=None)
@given(aux=mutated_aux())
def test_scan_and_compact_match_the_per_row_dict_merge(aux):
    expected = scan_by_dict(aux)
    assert_rows_equal(aux.scan(), expected)
    live = len(aux)
    aux.compact()
    assert not aux._overlay and not aux._tombstones
    assert_rows_equal(aux.scan(), expected)
    assert len(aux) == live == expected[0].size


@settings(max_examples=80, deadline=None)
@given(aux=mutated_aux(), data=st.data())
def test_probe_matches_the_dict_on_any_sorted_window(aux, data):
    """Property: the sorted core answers any ascending, distinct window
    — empty, reaching below the first fence or past the last, or lying
    between two partitions, over single-row partitions or wide ones,
    with or without overlay and tombstones — as a dict of the live rows
    would."""
    keys, codes = scan_by_dict(aux)
    model = dict(zip(keys.tolist(), zip(codes["a"].tolist(),
                                        codes["b"].tolist())))
    fences = [(meta.first_key, meta.last_key)
              for meta in aux._store.partitions]
    between = [key for (_, last), (first, _) in zip(fences, fences[1:])
               for key in range(last + 1, first)]
    windows = st.lists(st.integers(-60, 310), max_size=40, unique=True)
    if between:
        windows |= st.lists(st.sampled_from(between), unique=True)
    window = np.array(sorted(data.draw(windows)), dtype=np.int64)
    hit = np.zeros(window.size, dtype=bool)
    labels = {task: np.zeros(window.size, dtype=np.int64)
              for task in aux.tasks}
    aux.probe(window, hit, labels)
    for i, key in enumerate(window.tolist()):
        assert hit[i] == (key in model)
        if key in model:
            assert (labels["a"][i], labels["b"][i]) == model[key]


# ---------------------------------------------------------------------------
# to_state() / attach(): the compressed partitions are the persistent form
# ---------------------------------------------------------------------------
class TestAttach:
    @settings(max_examples=40, deadline=None)
    @given(aux=mutated_aux(), zero_copy=st.booleans())
    def test_state_round_trips_without_rebuilding(self, aux, zero_copy):
        packed = zerocopy.pack(aux.to_state())
        clone = AuxiliaryTable(aux.tasks, codec=aux._store.codec.name,
                               pool=aux.pool)
        clone._store._write_partition = None  # attaching never compresses
        clone.attach(zerocopy.unpack(packed, zero_copy=zero_copy))
        assert_rows_equal(clone.scan(), aux.scan())
        assert len(clone) == len(aux)
        assert clone.stored_bytes() == aux.stored_bytes()
        assert clone.partition_count == aux.partition_count
        # Sharing the source's pool, the clone caches under keys of its own.
        keys = [m.pool_key for m in clone._store.partitions]
        assert len(set(keys)) == len(keys)
        assert not set(keys) & {m.pool_key for m in aux._store.partitions}
        probe = np.arange(-60, 310, dtype=np.int64)
        found, codes = aux.lookup_batch(probe)
        got_found, got_codes = clone.lookup_batch(probe)
        np.testing.assert_array_equal(got_found, found)
        for task in aux.tasks:
            np.testing.assert_array_equal(got_codes[task][found],
                                          codes[task][found])
        assert bytes(zerocopy.pack(clone.to_state())) == bytes(packed)

    def test_segments_are_the_bytes_stored_bytes_counts(self):
        aux, _, _ = build_aux(n=2000, partition=1024)
        segments = aux.to_state()["store"]["partitions"]
        assert len(segments) == aux.partition_count > 1
        assert sum(memoryview(seg).nbytes for seg in segments) \
            == aux.stored_bytes()

    @pytest.mark.parametrize("fence", ["first_keys", "last_keys", "n_rows",
                                       "gap_widths"])
    def test_fences_that_disagree_with_the_blobs_are_refused(self, fence):
        aux, _, _ = build_aux(n=2000, partition=1024)
        state = aux.to_state()
        state["store"][fence] = state["store"][fence][:-1]
        clone = AuxiliaryTable(aux.tasks)
        with pytest.raises(StoreCorruptedError, match="partition"):
            clone.attach(state)

    def test_partitions_of_other_columns_are_refused(self):
        aux, _, _ = build_aux(n=100)
        with pytest.raises(StoreCorruptedError, match="columns"):
            AuxiliaryTable(("a", "c")).attach(aux.to_state())

    def test_attached_table_rebuilds_into_its_own_storage(self):
        aux, keys, codes = build_aux(n=500, partition=1024)
        clone = AuxiliaryTable(aux.tasks)
        clone.attach(aux.to_state())
        clone.remove_batch(keys[:5])
        clone.compact()
        found, _ = clone.lookup_batch(keys)
        assert not found[:5].any() and found[5:].all()
        # The source's partitions are untouched by the clone's rebuild.
        assert aux.lookup_batch(keys)[0].all()
