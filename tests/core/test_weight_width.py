"""The storage width of the frozen weights, end to end.

``DeepMapping.fit`` freezes the model at the width Eq. 1 picks
(``repro.nn.inference.choose_width``); whatever it picks, the store
stays lossless — ``T_aux`` is derived from the quantised predictor —
through save, every way to open, mutation and retrain.  Tests force a
width through the chooser's candidate list, the one internal hook.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import DeepMapping
from repro.core import verify
from repro.core.mhas import measure_aux_bytes_per_row
from repro.data import ColumnTable, synthetic
from repro.nn import CompiledSession, InferenceSession, inference
from repro.nn.multitask import MultiTaskMLP
from repro.storage import InMemoryBackend, zerocopy
from repro.storage.blob_cache import payload_cache
from repro.testing import serve_backend

from .conftest import fast_config

CANDIDATES = inference.WIDTH_CANDIDATES


def fit_at(monkeypatch, bits, table, config):
    """Fit with the chooser restricted to one candidate width."""
    with monkeypatch.context() as patch:
        patch.setattr(inference, "WIDTH_CANDIDATES", (bits,))
        mapping = DeepMapping.fit(table, config)
    assert mapping.model.session.bits == bits
    return mapping


def probe_keys(table):
    """Every live key, then in-domain gaps and out-of-domain misses."""
    keys = np.asarray(table.column("key"), dtype=np.int64)
    absent = np.setdiff1d(np.arange(keys.max() + 40, dtype=np.int64), keys)
    return {"key": np.concatenate([keys, absent, [10**9, -1]])}


def assert_answers_table(store, table):
    """Lookups are bit-identical to the source table; misses are misses."""
    query = probe_keys(table)
    result = store.lookup(query)
    n = table.n_rows
    assert result.found[:n].all() and not result.found[n:].any()
    for column in table.value_columns:
        got = result.values[column][:n]
        assert got.dtype == table.column(column).dtype
        np.testing.assert_array_equal(got, table.column(column))


def blobs(name):
    """Every blob of container ``name``, by name."""
    backend = InMemoryBackend.named(name)
    return {blob: bytes(backend.read_bytes(blob)) for blob in backend.list()}


def every_open(name):
    """The three ways a saved store comes back, over one backend."""
    url = f"mem://{name}"
    backend = InMemoryBackend.named(name)
    yield "writable", repro.open(url, writable=True)
    yield "read-only", repro.open(url, writable=False)
    with serve_backend(backend) as server:
        yield "http", repro.open(server.url)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_table_at_any_width_round_trips_through_every_open(data):
    """Property: random small tables × every candidate width × save →
    reopen (writable, read-only, over HTTP ranges) answer exactly the
    source table, and the writable reopen saves back identical bytes."""
    bits = data.draw(st.sampled_from(CANDIDATES))
    n = data.draw(st.integers(min_value=1, max_value=90))
    keys = np.sort(np.array(data.draw(st.lists(
        st.integers(0, 400), min_size=n, max_size=n, unique=True)),
        dtype=np.int64))
    correlated = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    values = (keys // 7) % 5 if correlated else rng.integers(0, 9, n)
    table = ColumnTable(
        {"key": keys, "value": values,
         "label": np.array(["a", "bb", "ccc"])[rng.integers(0, 3, n)]},
        key=("key",))
    config = fast_config(epochs=2, shared_sizes=(8,), private_sizes=(4,),
                         weight_dtype=data.draw(
                             st.sampled_from(["float16", "float32"])))

    name = f"width-round-trip-{os.urandom(6).hex()}"
    try:
        with pytest.MonkeyPatch.context() as patch:
            source = fit_at(patch, bits, table, config)
        assert_answers_table(source, table)
        source.save(f"mem://{name}")
        first = blobs(name)
        for how, opened in every_open(name):
            assert opened.model.session.bits == bits, how
            assert_answers_table(opened, table)
            if how == "writable":
                assert (opened.model.session.nbytes
                        == source.model.session.nbytes)
                opened.save(f"mem://{name}")
                assert blobs(name) == first
            opened.close()
    finally:
        payload_cache().clear()
        InMemoryBackend.discard(name)


class TestLosslessWhereQuantisationHurts:
    """3 bits on a low-correlation table: the predictor loses many more
    rows than at float16, and every one of them is in ``T_aux``."""

    @pytest.fixture
    def table(self):
        return synthetic.multi_column(1200, "low", seed=4)

    def test_lost_rows_move_to_aux_never_to_a_wrong_answer(
            self, monkeypatch, table):
        config = fast_config(epochs=30, key_headroom_fraction=0.5)
        wide = fit_at(monkeypatch, None, table, config)
        narrow = fit_at(monkeypatch, 3, table, config)
        assert narrow.model.session.nbytes < wide.model.session.nbytes / 3
        assert narrow.aux_ratio() > wide.aux_ratio()
        assert verify(narrow, table).ok
        assert_answers_table(narrow, table)

        # Every row the stored predictor gets wrong is an aux row.
        flat = narrow.model.key_codec.flatten(table.key_columns_dict())
        labels = narrow.model.fdecode.encode(table.value_columns_dict())
        predicted = narrow.model.compiled_session().run(flat)
        wrong = np.zeros(flat.size, dtype=bool)
        for task, codes in labels.items():
            wrong |= predicted[task] != codes
        in_aux, _ = narrow.shards[0].aux.lookup_batch(np.sort(flat[wrong]))
        assert wrong.sum() > 0 and in_aux.all()

    def test_mutation_and_retrain_on_the_reopened_store(
            self, monkeypatch, table, tmp_path):
        config = fast_config(epochs=10, key_headroom_fraction=0.5)
        path = str(tmp_path / "narrow.dm")
        fit_at(monkeypatch, 3, table, config).save(path)

        store = repro.open(path)
        assert store.model.session.bits == 3
        truth = {int(k): tuple(table.column(c)[i]
                               for c in table.value_columns)
                 for i, k in enumerate(table.column("key"))}

        def rows(keys, seed):
            donor = synthetic.multi_column(len(keys), "low", seed=seed)
            columns = {"key": np.asarray(keys, dtype=np.int64)}
            columns.update({c: donor.column(c) for c in table.value_columns})
            for i, key in enumerate(keys):
                truth[int(key)] = tuple(columns[c][i]
                                        for c in table.value_columns)
            return columns

        def check():
            keys = np.array(sorted(truth), dtype=np.int64)
            gone = np.setdiff1d(np.arange(keys.max() + 5), keys)
            result = store.lookup({"key": np.concatenate([keys, gone])})
            assert result.found[:keys.size].all()
            assert not result.found[keys.size:].any()
            for j, column in enumerate(table.value_columns):
                expected = np.array([truth[k][j] for k in keys.tolist()])
                np.testing.assert_array_equal(
                    result.values[column][:keys.size], expected)

        top = int(table.column("key").max())
        store.insert(rows(range(top + 1, top + 121), seed=5))
        check()
        store.update(rows(table.column("key")[::5].tolist(), seed=6))
        check()
        dead = table.column("key")[1::7]
        store.delete({"key": dead})
        for key in dead.tolist():
            del truth[int(key)]
        check()
        # A retrain re-chooses the width over what the store holds now
        # (all candidates back in play) and must stay exact.
        store.rebuild()
        assert store.model.session.bits in CANDIDATES
        check()
        store.save(path)
        store = repro.open(path, writable=False)
        check()


class TestUnpackedLayout:
    """Plain float arrays per layer are the unpacked case of the one
    reader."""

    @pytest.mark.parametrize("dtype", ["float16", "float32"])
    def test_unpacked_layout_opens_everywhere_and_resaves(
            self, monkeypatch, dtype):
        table = synthetic.multi_column(300, "high", seed=9)
        source = fit_at(monkeypatch, None, table,
                        fast_config(epochs=3, weight_dtype=dtype))
        name = f"unpacked-layout-{os.urandom(6).hex()}"
        try:
            source.save(f"mem://{name}")
            session = zerocopy.unpack(InMemoryBackend.named(name).read_bytes(
                "model.rzc"))["session_v2"]
            for weight, bias in [*session["shared"],
                                 *(p for c in session["heads"].values()
                                   for p in c)]:
                assert weight.dtype == bias.dtype == np.dtype(dtype)
                assert weight.ndim == 2 and bias.ndim == 1
            for how, opened in every_open(name):
                assert opened.model.session.bits is None, how
                assert opened.model.session.width_label == dtype
                assert_answers_table(opened, table)
                if how == "writable":
                    opened.save(f"mem://{name}-again")
                opened.close()
            again = repro.open(f"mem://{name}-again", writable=False)
            assert again.model.session.bits is None
            assert_answers_table(again, table)
        finally:
            payload_cache().clear()
            InMemoryBackend.discard(name)
            InMemoryBackend.discard(f"{name}-again")


class TestChosenWidthIsTheEq1Argmin:
    def recompute(self, mapping, model, table):
        """Eq. 1's width-dependent terms for every candidate, from
        scratch: stored weight bytes plus the compressed bytes of the
        rows ``T_aux`` would hold under that candidate's compiled
        predictor — the ones it gets wrong and the ones under its tie
        margin."""
        flat = mapping.model.key_codec.flatten(table.key_columns_dict())
        labels = mapping.model.fdecode.encode(table.value_columns_dict())
        config = mapping.config
        costs, rows = {}, {}
        for bits in CANDIDATES:
            session = InferenceSession.from_model(
                model, config.weight_dtype, bits=bits)
            stored = sum(
                array.nbytes
                for chain in [session._shared, *session._heads.values()]
                for layer in chain for array in layer)
            predicted, wrong = CompiledSession(
                session, mapping.model.key_encoder).classify(flat)
            for task, codes in labels.items():
                wrong |= predicted[task] != codes
            per_row = measure_aux_bytes_per_row(
                flat[wrong], {t: labels[t][wrong] for t in labels},
                codec=config.aux_codec,
                partition_bytes=config.aux_partition_bytes)
            costs[bits] = stored + wrong.sum() * per_row
            rows[bits] = int(wrong.sum())
        return costs, rows

    @pytest.mark.parametrize("correlation", ["high", "low"])
    def test_no_candidate_beats_the_stored_width(self, monkeypatch,
                                                 correlation):
        table = synthetic.single_column(1500, correlation, seed=3)
        frozen = []
        original = inference.choose_width

        def spy(model, *args):
            frozen.append(model)
            return original(model, *args)

        monkeypatch.setattr(repro.core.model, "choose_width", spy)
        mapping = DeepMapping.fit(table, fast_config(epochs=20))
        (model,) = frozen
        assert isinstance(model, MultiTaskMLP)
        costs, aux_rows = self.recompute(mapping, model, table)
        assert costs[mapping.model.session.bits] == min(costs.values())
        # The winner's priced rows are exactly the rows T_aux holds.
        assert aux_rows[mapping.model.session.bits] == \
            mapping.size_report().n_in_aux
        assert verify(mapping, table).ok

    def test_perfectly_memorised_float32_table_stays_exact(self):
        """``weight_dtype="float32"`` is only the upper bound: a table
        the model memorises at any width is stored at the narrowest,
        and still answers exactly."""
        keys = np.arange(400, dtype=np.int64)
        table = ColumnTable({"key": keys, "value": keys // 100},
                            key=("key",))
        mapping = DeepMapping.fit(
            table, fast_config(epochs=150, weight_dtype="float32"))
        assert mapping.model.session.bits is not None
        assert mapping.model.session.weight_dtype == np.float32
        assert verify(mapping, table).ok
        assert_answers_table(mapping, table)
        unpacked = inference.weight_nbytes(mapping.model.session.spec, None,
                                           "float32")
        assert mapping.model.session.nbytes < unpacked / 4
