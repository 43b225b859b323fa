"""Parity tests: CompiledSession vs the textbook forward pass.

The compiled engine must predict exactly the label codes the reference
path predicts (``repro.testing.oracles.reference_logits`` over the
one-hot encoding) on every supported configuration — that is the oracle
the lookup algorithm was built against.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.encoding import KeyEncoder
from repro.nn import (ArchitectureSpec, CompiledSession, InferenceSession,
                      MultiTaskMLP, compiled as compiled_module)
from repro.nn.inference import WIDTH_CANDIDATES
from repro.testing.oracles import reference_logits


def make_pair(bases, shared_sizes, private_sizes, output_dims, max_key,
              weight_dtype="float16", seed=7):
    """A (reference session, compiled session, encoder) triple."""
    rng = np.random.default_rng(seed)
    encoder = KeyEncoder(bases).fit(max_key)
    spec = ArchitectureSpec(
        input_dim=encoder.input_dim,
        shared_sizes=shared_sizes,
        private_sizes=private_sizes,
        output_dims=output_dims,
    )
    model = MultiTaskMLP(spec, rng=rng)
    session = InferenceSession.from_model(model, weight_dtype=weight_dtype)
    return session, CompiledSession(session, encoder), encoder


def reference_codes(session, encoder, keys):
    return {task: logits.argmax(axis=1) for task, logits in
            reference_logits(session, encoder.encode(keys)).items()}


def assert_codes_match(session, compiled, encoder, keys):
    reference = reference_codes(session, encoder, keys)
    got = compiled.run(keys)
    assert set(got) == set(reference)
    for task in reference:
        np.testing.assert_array_equal(got[task], reference[task])


CONFIGS = [
    pytest.param(10, (12,), {"a": (6,), "b": ()}, {"a": 4, "b": 3},
                 id="single-base-trunk"),
    pytest.param((10, 7, 4), (16,), {"a": (8,)}, {"a": 5},
                 id="multi-base-trunk"),
    pytest.param(10, (), {"a": (6,), "b": ()}, {"a": 4, "b": 3},
                 id="no-trunk-fused-heads"),
    pytest.param((10, 3), (12, 8), {"a": ()}, {"a": 9},
                 id="deep-trunk"),
    pytest.param(2, (10,), {"a": ()}, {"a": 4},
                 id="binary-base-wide-groups"),
]


class TestParity:
    @pytest.mark.parametrize("bases,shared,private,outputs", CONFIGS)
    @pytest.mark.parametrize("dtype", ["float16", "float32"])
    def test_codes_match_reference(self, bases, shared, private, outputs,
                                   dtype):
        session, compiled, encoder = make_pair(
            bases, shared, private, outputs, max_key=99999,
            weight_dtype=dtype)
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 100000, size=4000)
        assert_codes_match(session, compiled, encoder, keys)

    def test_chunked_run_equals_single_shot(self, monkeypatch):
        session, compiled, encoder = make_pair(
            10, (12,), {"a": (6,)}, {"a": 4}, max_key=9999)
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 10000, size=2500)
        single = compiled.run(keys)
        monkeypatch.setattr(compiled_module, "CHUNK_ROWS", 333)
        chunked = compiled.run(keys)
        np.testing.assert_array_equal(single["a"], chunked["a"])
        assert_codes_match(session, compiled, encoder, keys)

    def test_empty_batch(self):
        _, compiled, _ = make_pair(10, (8,), {"a": ()}, {"a": 3},
                                   max_key=999)
        out = compiled.run(np.empty(0, dtype=np.int64))
        assert out["a"].shape == (0,)
        assert out["a"].dtype == np.int64
        logits = compiled.run_logits(np.empty(0, dtype=np.int64))
        assert logits["a"].shape == (0, 3)

    def test_composite_style_key_domain(self):
        # Keys spanning a wide flattened composite domain (many digits).
        session, compiled, encoder = make_pair(
            10, (16,), {"a": (8,), "b": ()}, {"a": 6, "b": 2},
            max_key=10**8 - 1)
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 10**8, size=3000)
        assert_codes_match(session, compiled, encoder, keys)

    def test_logits_close_to_reference(self):
        session, compiled, encoder = make_pair(
            10, (12,), {"a": (6,)}, {"a": 4}, max_key=9999,
            weight_dtype="float32")
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 10000, size=500)
        reference = reference_logits(session, encoder.encode(keys))
        got = compiled.run_logits(keys)
        np.testing.assert_allclose(got["a"], reference["a"],
                                   rtol=1e-5, atol=1e-5)


class TestValidation:
    def test_unfitted_encoder_rejected(self):
        session, _, _ = make_pair(10, (8,), {"a": ()}, {"a": 3}, max_key=99)
        with pytest.raises(ValueError):
            CompiledSession(session, KeyEncoder(10))

    def test_input_dim_mismatch_rejected(self):
        session, _, _ = make_pair(10, (8,), {"a": ()}, {"a": 3}, max_key=99)
        wrong = KeyEncoder(10).fit(10**6)
        with pytest.raises(ValueError):
            CompiledSession(session, wrong)

    def test_negative_keys_rejected(self):
        _, compiled, _ = make_pair(10, (8,), {"a": ()}, {"a": 3}, max_key=99)
        with pytest.raises(ValueError):
            compiled.run(np.array([3, -1]))


@settings(max_examples=25, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=10**6 - 1),
                     min_size=0, max_size=200))
def test_parity_property_random_batches(keys):
    """Property: any key batch yields the reference path's codes."""
    session, compiled, encoder = make_pair(
        (10, 7), (10,), {"a": (5,), "b": ()}, {"a": 4, "b": 3},
        max_key=10**6 - 1)
    arr = np.array(keys, dtype=np.int64)
    assert_codes_match(session, compiled, encoder, arr)


def exact_logits(session, encoder, keys):
    """The frozen float32 layers evaluated in float64 — the logits every
    float32 predictor approximates."""
    shared, heads = session.float_layers()
    h = encoder.encode(keys).astype(np.float64)
    for w, b in shared:
        h = np.maximum(h @ w.astype(np.float64) + b, 0.0)
    out = {}
    for task, chain in heads.items():
        t = h
        for i, (w, b) in enumerate(chain):
            t = t @ w.astype(np.float64) + b
            if i < len(chain) - 1:
                t = np.maximum(t, 0.0)
        out[task] = t
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tie_margin_bounds_every_float32_logit(data):
    """Property: random specs × every stored width × multi-base
    encoders — the compiled kernel's and the reference session's float32
    logits are each within ``tie_margin / 4`` of the exact ones, so the
    two can flip no argmax whose top-two gap is at least the margin."""
    bases = tuple(data.draw(st.lists(st.integers(2, 12), min_size=1,
                                     max_size=3, unique=True)))
    shared = tuple(data.draw(st.lists(st.integers(1, 24), max_size=2)))
    private = {"a": tuple(data.draw(st.lists(st.integers(1, 12),
                                             max_size=2))),
               "b": ()}
    outputs = {"a": data.draw(st.integers(1, 9)),
               "b": data.draw(st.integers(2, 5))}
    max_key = data.draw(st.integers(1, 10**7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    encoder = KeyEncoder(bases).fit(max_key)
    model = MultiTaskMLP(ArchitectureSpec(
        input_dim=encoder.input_dim, shared_sizes=shared,
        private_sizes=private, output_dims=outputs), rng=rng)
    session = InferenceSession.from_model(
        model, weight_dtype=data.draw(st.sampled_from(["float16",
                                                       "float32"])),
        bits=data.draw(st.sampled_from(WIDTH_CANDIDATES)))
    compiled = CompiledSession(session, encoder)
    assert 0 < compiled.tie_margin < 1

    keys = rng.integers(0, max_key + 1, size=300)
    exact = exact_logits(session, encoder, keys)
    kernel = compiled.run_logits(keys)
    reference = reference_logits(session, encoder.encode(keys))
    for task in outputs:
        for got in (kernel[task], reference[task]):
            assert np.abs(got - exact[task]).max() <= compiled.tie_margin / 4


def test_classify_flags_exactly_the_near_ties(monkeypatch):
    session, compiled, encoder = make_pair(
        (10, 7), (12,), {"a": (6,), "b": ()}, {"a": 4, "b": 1},
        max_key=99999)
    keys = np.random.default_rng(8).integers(0, 100000, size=3000)
    expected_codes = compiled.run(keys)
    monkeypatch.setattr(compiled_module, "CHUNK_ROWS", 777)
    codes, ties = compiled.classify(keys)
    for task, expected in expected_codes.items():
        np.testing.assert_array_equal(codes[task], expected)
    top = np.sort(compiled.run_logits(keys)["a"], axis=1)[:, -2:]
    # A one-class task ("b") can never tie.
    np.testing.assert_array_equal(
        ties, top[:, 1] - top[:, 0] < compiled.tie_margin)


def test_lost_rows_are_the_wrong_and_the_near_tied():
    """``lost_rows`` is the one definition of what ``T_aux`` holds: a
    key some task answers wrong, or any key under the tie margin —
    including a right one."""
    session, compiled, encoder = make_pair(
        10, (12,), {"a": (6,), "b": ()}, {"a": 4, "b": 3}, max_key=99999)
    keys = np.random.default_rng(9).integers(0, 100000, size=3000)
    codes, ties = compiled.classify(keys)
    labels = {"a": codes["a"].copy(), "b": codes["b"].copy()}
    labels["b"][::5] = (labels["b"][::5] + 1) % 3
    wrong = np.zeros(keys.size, dtype=bool)
    wrong[::5] = True
    np.testing.assert_array_equal(compiled.lost_rows(keys, labels),
                                  wrong | ties)
    # Every answer right: exactly the near ties are lost.
    top = np.sort(compiled.run_logits(keys)["a"], axis=1)[:, -2:]
    compiled.tie_margin = float(np.median(top[:, 1] - top[:, 0]))
    _, wide_ties = compiled.classify(keys)
    assert wide_ties.any() and not wide_ties.all()
    np.testing.assert_array_equal(compiled.lost_rows(keys, codes), wide_ties)


def test_threads_alternating_sessions_share_no_answers(monkeypatch):
    """The scratch arena is per thread and shared by every session:
    4 threads alternate ``run`` / ``lost_rows`` over sessions of
    different widths and batch sizes (one batch spans three chunks),
    and every answer equals a single-threaded run on a fresh session."""
    monkeypatch.setattr(compiled_module, "CHUNK_ROWS", 1000)
    pairs = [
        make_pair(10, (12,), {"a": (6,)}, {"a": 4}, max_key=99999, seed=1),
        make_pair((10, 7), (40,), {"a": (24,), "b": ()}, {"a": 5, "b": 3},
                  max_key=99999, seed=2),
        make_pair(2, (8,), {"a": ()}, {"a": 3}, max_key=99999, seed=3),
        make_pair(10, (), {"a": (16,)}, {"a": 6}, max_key=99999, seed=4),
    ]
    rng = np.random.default_rng(11)
    jobs = []
    for (session, compiled, encoder), size in zip(pairs, (2500, 700, 64, 1)):
        keys = rng.integers(0, 100000, size=size)
        fresh = CompiledSession(session, encoder)
        codes = fresh.run(keys)
        labels = {task: (code + (np.arange(size) % 3 == 0))
                  % session.spec.output_dims[task]
                  for task, code in codes.items()}
        jobs.append((compiled, keys, labels, codes,
                     fresh.lost_rows(keys, labels)))
    start, failures = threading.Barrier(4), []

    def worker(offset):
        start.wait()
        try:
            for step in range(24):
                compiled, keys, labels, codes, lost = jobs[(offset + step) % 4]
                if step % 2:
                    np.testing.assert_array_equal(
                        compiled.lost_rows(keys, labels), lost)
                else:
                    got = compiled.run(keys)
                    for task, expected in codes.items():
                        np.testing.assert_array_equal(got[task], expected)
        except AssertionError as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(offset,))
               for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-pass as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
