"""Bit-packed weight storage: pack/unpack, quantise/dequantise, the
sessions built on them, and the Eq. 1 width chooser."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.encoding import KeyEncoder
from repro.nn import (ArchitectureSpec, CompiledSession, InferenceSession,
                      MultiTaskMLP)
from repro.nn import inference
from repro.nn.quantize import (dequantize, pack, packed_nbytes, quantize,
                               unpack)
from repro.testing.oracles import reference_logits

BITS = st.integers(min_value=1, max_value=8)


@st.composite
def levels_and_bits(draw):
    bits = draw(BITS)
    values = draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=67))
    return np.array(values, dtype=np.uint8), bits


class TestPackUnpack:
    @settings(max_examples=200, deadline=None)
    @given(levels_and_bits())
    def test_round_trip(self, drawn):
        levels, bits = drawn
        packed = pack(levels, bits)
        assert packed.dtype == np.uint8 and packed.ndim == 1
        assert packed.size == packed_nbytes(levels.size, bits)
        np.testing.assert_array_equal(
            unpack(packed, bits, levels.size), levels)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_read_only_buffers_and_edge_sizes(self, bits):
        top = (1 << bits) - 1
        for levels in ([], [top], [0, top, top], list(range(top + 1)) * 3):
            levels = np.array(levels, dtype=np.uint8)
            levels.flags.writeable = False
            stored = np.frombuffer(bytes(pack(levels, bits)), dtype=np.uint8)
            assert not stored.flags.writeable
            np.testing.assert_array_equal(
                unpack(stored, bits, levels.size), levels)

    def test_layout_is_msb_first_without_padding(self):
        # 3-bit 5, 2, 7 -> 101 010 111 -> 1010_1011 1000_0000
        np.testing.assert_array_equal(
            pack(np.array([5, 2, 7], dtype=np.uint8), 3), [0xAB, 0x80])

    def test_refuses_what_does_not_fit(self):
        with pytest.raises(ValueError, match="does not fit in 3 bits"):
            pack(np.array([8], dtype=np.uint8), 3)
        with pytest.raises(ValueError, match="bit width"):
            pack(np.zeros(1, dtype=np.uint8), 9)
        with pytest.raises(ValueError, match="bit width"):
            unpack(np.zeros(1, dtype=np.uint8), 0, 1)
        with pytest.raises(ValueError, match="take 2 bytes, got 3"):
            unpack(np.zeros(3, dtype=np.uint8), 4, 4)


class TestQuantize:
    @pytest.mark.parametrize("bits", range(2, 9))
    def test_error_is_at_most_half_a_step(self, bits):
        weight = np.random.default_rng(bits).normal(
            size=(17, 5)).astype(np.float32)
        levels, scale = quantize(weight, bits)
        assert levels.dtype == np.uint8 and levels.shape == weight.shape
        assert scale.dtype == np.float16 and scale.shape == (5,)
        assert int(levels.max()) <= (1 << bits) - 2   # symmetric: 2*qmax
        error = np.abs(dequantize(levels, scale, bits) - weight)
        # Half a step, plus what rounding the step to float16 can
        # clip off the largest level.
        bound = scale.astype(np.float32) * (0.5 + 2.0 ** (bits - 1) / 1024)
        assert (error <= bound).all()

    def test_dequantize_is_exact_for_representable_weights(self):
        scale = np.array([0.5, 0.25], dtype=np.float16)
        q = np.array([[-7, 7], [0, -3], [4, 1]], dtype=np.float32)
        weight = q * scale.astype(np.float32)
        levels, got_scale = quantize(weight, 4)
        np.testing.assert_array_equal(got_scale, scale)
        np.testing.assert_array_equal(dequantize(levels, got_scale, 4),
                                      weight)

    def test_zero_and_huge_columns_stay_finite(self):
        weight = np.array([[0.0, 1e6], [0.0, -1e6]], dtype=np.float32)
        levels, scale = quantize(weight, 4)
        assert np.isfinite(scale.astype(np.float32)).all()
        assert (dequantize(levels, scale, 4)[:, 0] == 0).all()

    def test_one_bit_has_no_symmetric_levels(self):
        with pytest.raises(ValueError, match="bit width"):
            quantize(np.ones((2, 2), dtype=np.float32), 1)


def small_model(seed=3):
    spec = ArchitectureSpec(
        input_dim=20, shared_sizes=(12,),
        private_sizes={"a": (6,), "b": ()}, output_dims={"a": 4, "b": 3})
    return MultiTaskMLP(spec, rng=np.random.default_rng(seed))


def stored_arrays(session):
    chains = [session._shared, *session._heads.values()]
    return [array for chain in chains for layer in chain for array in layer]


class TestPackedSession:
    @pytest.mark.parametrize("bits", [None, 8, 6, 5, 4, 3])
    def test_stored_size_is_what_the_chooser_charges(self, bits):
        model = small_model()
        session = InferenceSession.from_model(model, "float16", bits=bits)
        assert sum(a.nbytes for a in stored_arrays(session)) \
            == inference.weight_nbytes(model.spec, bits, "float16")
        # Two arrays per layer whatever the width: the segment count of
        # a saved shard does not move.
        assert len(stored_arrays(session)) == 2 * len(model.spec.layer_plan())
        assert session.nbytes == len(pickle.dumps(
            session.to_state(), protocol=pickle.HIGHEST_PROTOCOL))
        assert session.param_count() == model.param_count()

    @pytest.mark.parametrize("bits", [8, 5, 3])
    def test_state_round_trip_adopts_read_only_arrays(self, bits):
        session = InferenceSession.from_model(small_model(), bits=bits)
        state = pickle.loads(pickle.dumps(session.to_state()))
        for chain in [state["shared"], *state["heads"].values()]:
            for pair in chain:
                for array in pair:
                    array.flags.writeable = False
        clone = InferenceSession.from_state(state)
        assert clone.bits == bits and repr(clone) == repr(session)
        assert f"weights={bits}-bit" in repr(clone)
        x = np.random.default_rng(0).normal(size=(50, 20)).astype(np.float32)
        for task in session.tasks:
            np.testing.assert_array_equal(reference_logits(clone, x)[task],
                                          reference_logits(session, x)[task])

    def test_dequantised_once_and_shared_by_every_consumer(self, monkeypatch):
        calls = []
        original = inference.unpack
        monkeypatch.setattr(
            inference, "unpack",
            lambda *args: (calls.append(1), original(*args))[1])
        session = InferenceSession.from_model(small_model(), bits=4)
        n_layers = len(session.spec.layer_plan())
        x = np.zeros((3, 20), dtype=np.float32)
        reference_logits(session, x)
        reference_logits(session, x[:1])
        arrays = session.state_arrays()
        encoder = KeyEncoder(10).fit(99)
        engine = CompiledSession(session, encoder)
        engine.run(np.arange(50))
        assert len(calls) == n_layers
        shared, _ = session.float_layers()
        assert arrays["shared/0.W"] is shared[0][0]
        assert not shared[0][0].flags.writeable
        # The compiled kernel multiplies the very same numbers.
        assert engine._heads["a"][0].weight is session.float_layers()[1]["a"][0][0]

    def test_unpacked_state_without_bits_is_the_parent_layout(self):
        session = InferenceSession.from_model(small_model(), "float16")
        state = session.to_state()
        del state["bits"]
        clone = InferenceSession.from_state(state)
        assert clone.bits is None and "weights=float16" in repr(clone)
        x = np.random.default_rng(1).normal(size=(9, 20)).astype(np.float32)
        np.testing.assert_array_equal(reference_logits(clone, x)["a"],
                                      reference_logits(session, x)["a"])


class TestChooseWidth:
    def test_picks_the_argmin_and_reports_its_cost(self):
        model = small_model()
        price = {None: 0, 8: 0, 6: 10, 5: 25, 4: 40, 3: 10_000}
        seen = []

        def aux_bytes(candidate):
            seen.append(candidate.bits)
            return price[candidate.bits]

        session, cost = inference.choose_width(model, "float16", aux_bytes)
        assert tuple(seen) == inference.WIDTH_CANDIDATES
        costs = {bits: inference.weight_nbytes(model.spec, bits, "float16")
                 + price[bits] for bits in seen}
        assert cost == min(costs.values())
        assert costs[session.bits] == cost

    def test_a_tie_keeps_the_wider_candidate(self, monkeypatch):
        model = small_model()
        monkeypatch.setattr(inference, "WIDTH_CANDIDATES", (8, 8))
        sessions = []

        def aux_bytes(candidate):
            sessions.append(candidate)
            return 0

        session, _ = inference.choose_width(model, "float16", aux_bytes)
        assert session is sessions[0]

    def test_unpacked_wins_when_every_packed_width_loses_rows(self):
        session, _ = inference.choose_width(
            small_model(), "float32",
            lambda candidate: 0 if candidate.bits is None else 10**9)
        assert session.bits is None
        assert session.weight_dtype == np.float32
