"""The frozen model, as it is stored.

The paper deploys trained models through the ONNX runtime (Sec. IV-B2) —
a forward-only graph with frozen weights.  :class:`InferenceSession`
snapshots a trained :class:`~repro.nn.multitask.MultiTaskMLP` into the
arrays that reach disk and exports its spec and those arrays as the
state the payload container stores; the serialized size of that state
is the "model size" term of the paper's Eq. 1 objective.  It runs no
forward pass: :class:`~repro.nn.compiled.CompiledSession` is the one
predictor.

**What is stored.**  Each dense layer is two arrays.  Unpacked
(``bits is None``): the weight matrix and the bias at ``weight_dtype``.
Packed (``2 <= bits <= 8``): the weights as ``bits``-bit integers in one
flat ``uint8`` buffer (:mod:`repro.nn.quantize`) and one ``float16``
``(2, out)`` array holding the bias row and the per-output-channel scale
row — still two segments per layer.  Whatever is stored, every consumer
(:class:`~repro.nn.compiled.CompiledSession`, the test oracles,
:meth:`~InferenceSession.state_arrays`) computes with the same float32
arrays, dequantised **once per session** and memoised.

**Which width.**  :func:`choose_width` freezes a trained model at every
candidate in :data:`WIDTH_CANDIDATES` and keeps the one that minimises
the part of Eq. 1 the width moves: stored weight bytes plus the rows
that candidate's compiled kernel loses times the compressed bytes an
auxiliary row costs.  ``weight_dtype`` is therefore the *upper bound*
(the unpacked candidate), not necessarily what is stored.
"""

from __future__ import annotations

import pickle
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .multitask import ArchitectureSpec, MultiTaskMLP
from .quantize import dequantize, pack, packed_nbytes, quantize, unpack

__all__ = ["InferenceSession", "WIDTH_CANDIDATES", "choose_width",
           "weight_nbytes"]

#: Storage widths :func:`choose_width` scores, widest first (a tie keeps
#: the wider): ``None`` is the unpacked ``weight_dtype``, the rest are
#: packed bit widths.
WIDTH_CANDIDATES: Tuple[Optional[int], ...] = (None, 8, 6, 5, 4, 3)

#: One stored dense layer: (weights, bias) unpacked, or (packed levels,
#: [bias row, scale row]) packed.
_Layer = Tuple[np.ndarray, np.ndarray]


def _spec_from_dict(spec: Dict[str, object]) -> ArchitectureSpec:
    """Rebuild an :class:`ArchitectureSpec` from its serialized fields."""
    return ArchitectureSpec(
        input_dim=spec["input_dim"],
        shared_sizes=tuple(spec["shared_sizes"]),
        private_sizes={t: tuple(v)
                       for t, v in spec["private_sizes"].items()},
        output_dims=dict(spec["output_dims"]),
    )


def weight_nbytes(spec: ArchitectureSpec, bits: Optional[int],
                  weight_dtype: str = "float16") -> int:
    """Bytes of the arrays a session of this shape stores at ``bits``
    (``None``: unpacked at ``weight_dtype``) — the size :func:`choose_width`
    charges a candidate, computable without freezing anything."""
    if bits is None:
        return spec.param_count() * np.dtype(weight_dtype).itemsize
    return sum(packed_nbytes(i * o, bits) + 2 * o * np.dtype(np.float16).itemsize
               for _, i, o in spec.layer_plan())


class InferenceSession:
    """Stored snapshot of a multi-task model.

    Build with :meth:`from_model` (or :func:`choose_width`, which picks
    ``bits``), predict through a
    :class:`~repro.nn.compiled.CompiledSession`, persist with
    :meth:`to_state` / :meth:`from_state`.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        shared: List[Tuple[np.ndarray, np.ndarray]],
        heads: Dict[str, List[Tuple[np.ndarray, np.ndarray]]],
        weight_dtype: str = "float16",
        bits: Optional[int] = None,
    ):
        self.spec = spec
        self.weight_dtype = np.dtype(weight_dtype)
        #: Packed bit width of the stored weights; None when they are
        #: stored unpacked at ``weight_dtype``.
        self.bits = bits
        self._shared = [self._stored(w, b) for w, b in shared]
        self._heads = {task: [self._stored(w, b) for w, b in chain]
                       for task, chain in heads.items()}
        self._floats: Optional[Tuple[list, dict]] = None
        self._nbytes: Optional[int] = None

    def _stored(self, weight: np.ndarray, bias: np.ndarray) -> _Layer:
        """One float layer in the form this session persists."""
        if self.bits is None:
            return (weight.astype(self.weight_dtype),
                    bias.astype(self.weight_dtype))
        levels, scale = quantize(weight, self.bits)
        return (pack(levels, self.bits),
                np.stack([bias.astype(np.float16), scale]))

    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls, model: MultiTaskMLP, weight_dtype: str = "float16",
        bits: Optional[int] = None,
    ) -> "InferenceSession":
        """Freeze a trained model into an inference session."""
        shared = [(layer.weight.value, layer.bias.value) for layer in model.shared]
        heads = {
            task: [(layer.weight.value, layer.bias.value) for layer in chain]
            for task, chain in model.heads.items()
        }
        return cls(model.spec, shared, heads, weight_dtype=weight_dtype,
                   bits=bits)

    # ------------------------------------------------------------------
    @property
    def tasks(self) -> Tuple[str, ...]:
        """Task names served by this session."""
        return self.spec.tasks

    def float_layers(self) -> Tuple[List[_Layer], Dict[str, List[_Layer]]]:
        """``(shared, heads)`` as read-only float32 ``(weight, bias)``
        pairs — the weights every predictor computes with.

        Dequantised (or cast up) on first use and memoised: the stored
        arrays are frozen, so this runs once per session, never per
        batch.  Concurrent first callers may both build it; the result
        is identical and the attribute swap is atomic.
        """
        floats = self._floats
        if floats is None:
            floats = (
                self._float_chain(self._shared, self.spec.input_dim),
                {task: self._float_chain(chain, self.spec.trunk_output_dim())
                 for task, chain in self._heads.items()},
            )
            self._floats = floats
        return floats

    def _float_chain(self, chain: List[_Layer], in_dim: int) -> List[_Layer]:
        out: List[_Layer] = []
        for first, second in chain:
            if self.bits is None:
                weight = np.array(first, dtype=np.float32)
                bias = np.array(second, dtype=np.float32)
            else:
                bias, scale = np.asarray(second, dtype=np.float32)
                levels = unpack(first, self.bits, in_dim * bias.size)
                weight = dequantize(levels.reshape(in_dim, bias.size),
                                    scale, self.bits)
            for array in (weight, bias):
                array.flags.writeable = False
            out.append((weight, bias))
            in_dim = weight.shape[1]
        return out

    # ------------------------------------------------------------------
    # Serialization / size accounting
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """Array-first state for the zero-copy container.

        Every stored array stays first-class, so the RZC2 container
        exports them as out-of-band segments and a ``writable=False``
        cold open maps them straight off disk.  The arrays are shared,
        not copied — the container snapshots them at pack time, and the
        weights are frozen anyway.
        """
        return {
            "spec": {
                "input_dim": self.spec.input_dim,
                "shared_sizes": self.spec.shared_sizes,
                "private_sizes": self.spec.private_sizes,
                "output_dims": self.spec.output_dims,
            },
            "weight_dtype": self.weight_dtype.str,
            "bits": self.bits,
            "shared": list(self._shared),
            "heads": {task: list(chain)
                      for task, chain in self._heads.items()},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "InferenceSession":
        """Inverse of :meth:`to_state` — adopts the arrays without
        copying or re-casting (read-only mmap views stay views; the
        forward pass only ever reads them).  A state without ``bits``
        (written before weights could be packed) is the unpacked case."""
        session = cls.__new__(cls)
        session.spec = _spec_from_dict(state["spec"])
        session.weight_dtype = np.dtype(state["weight_dtype"])
        session.bits = state.get("bits")
        # asarray at the stored dtype is a no-copy view carrying NumPy's
        # canonical dtype object (an unpickled dtype is a private one),
        # so a re-save pickles the same head a fresh build does.
        dtypes = ((session.weight_dtype, session.weight_dtype)
                  if session.bits is None else (np.uint8, np.float16))

        def adopt(chain):
            return [tuple(np.asarray(array, dtype=dtype)
                          for array, dtype in zip(pair, dtypes))
                    for pair in chain]

        session._shared = adopt(state["shared"])
        session._heads = {task: adopt(chain)
                          for task, chain in state["heads"].items()}
        session._floats = None
        session._nbytes = None
        return session

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Named float32 weight arrays in the trainable model's layout,
        enabling warm-started retraining (paper Sec. V-D future work)."""
        shared, heads = self.float_layers()
        arrays: Dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(shared):
            arrays[f"shared/{i}.W"] = w
            arrays[f"shared/{i}.b"] = b
        for task, chain in heads.items():
            for i, (w, b) in enumerate(chain):
                arrays[f"{task}/{i}.W"] = w
                arrays[f"{task}/{i}.b"] = b
        return arrays

    @property
    def nbytes(self) -> int:
        """Serialized model size — the ``size(M)`` term in Eq. 1: the
        spec and every stored array of :meth:`to_state`, pickled.

        Memoized: the weights are frozen, so the size never changes,
        and size accounting (``size_report`` → ``storage_bytes`` →
        ``__repr__``) asks for it repeatedly.
        """
        if self._nbytes is None:
            self._nbytes = len(pickle.dumps(
                self.to_state(), protocol=pickle.HIGHEST_PROTOCOL))
        return self._nbytes

    def param_count(self) -> int:
        """Total scalar weights."""
        return self.spec.param_count()

    @property
    def width_label(self) -> str:
        """How the weights are stored: ``"4-bit"``, ``"float16"``, …"""
        return (f"{self.bits}-bit" if self.bits is not None
                else self.weight_dtype.name)

    def __repr__(self) -> str:
        return (
            f"InferenceSession(tasks={list(self.tasks)}, "
            f"params={self.param_count()}, weights={self.width_label})"
        )


def choose_width(
    model: MultiTaskMLP,
    weight_dtype: str,
    aux_bytes: Callable[[InferenceSession], float],
) -> Tuple[InferenceSession, float]:
    """Freeze ``model`` at the storage width that minimises Eq. 1.

    Every width in :data:`WIDTH_CANDIDATES` is frozen and scored with
    ``weight_nbytes(...) + aux_bytes(session)`` — the two terms of
    ``size(M) + size(T_aux) + size(V_exist) + size(f_decode)`` that
    depend on the width.  ``aux_bytes`` prices the rows ``T_aux`` would
    hold under the candidate's *own* predictor (rows × compressed bytes
    per auxiliary row), so whatever quantisation breaks is charged as the
    auxiliary rows it will become.  Returns the winning session and its
    score in bytes.
    """
    best: Optional[Tuple[InferenceSession, float]] = None
    for bits in WIDTH_CANDIDATES:
        session = InferenceSession.from_model(model, weight_dtype, bits=bits)
        cost = (weight_nbytes(model.spec, bits, weight_dtype)
                + aux_bytes(session))
        if best is None or cost < best[1]:
            best = (session, cost)
    return best
