"""Frozen batch-inference runtime.

The paper deploys trained models through the ONNX runtime (Sec. IV-B2) —
a forward-only graph with frozen weights, optimized for batched lookups.
:class:`InferenceSession` plays that role here: it snapshots a trained
:class:`~repro.nn.multitask.MultiTaskMLP` into plain weight arrays (stored
at ``float16`` by default, halving the offline model footprint), executes
batched forward passes with no autograd bookkeeping, and exports its spec
and weight arrays as the state the payload container stores; the
serialized size of that state is the "model size" term of the paper's
Eq. 1 objective.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Tuple

import numpy as np

from .activations import relu
from .multitask import ArchitectureSpec, MultiTaskMLP

__all__ = ["InferenceSession"]


def _spec_from_dict(spec: Dict[str, object]) -> ArchitectureSpec:
    """Rebuild an :class:`ArchitectureSpec` from its serialized fields."""
    return ArchitectureSpec(
        input_dim=spec["input_dim"],
        shared_sizes=tuple(spec["shared_sizes"]),
        private_sizes={t: tuple(v)
                       for t, v in spec["private_sizes"].items()},
        output_dims=dict(spec["output_dims"]),
    )


class InferenceSession:
    """Forward-only snapshot of a multi-task model.

    Build with :meth:`from_model`, query with :meth:`run` /
    :meth:`run_logits`, persist with :meth:`to_state` / :meth:`from_state`.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        shared: List[Tuple[np.ndarray, np.ndarray]],
        heads: Dict[str, List[Tuple[np.ndarray, np.ndarray]]],
        weight_dtype: str = "float16",
    ):
        self.spec = spec
        self.weight_dtype = np.dtype(weight_dtype)
        self._shared = [(w.astype(self.weight_dtype), b.astype(self.weight_dtype))
                        for w, b in shared]
        self._heads = {
            task: [(w.astype(self.weight_dtype), b.astype(self.weight_dtype))
                   for w, b in chain]
            for task, chain in heads.items()
        }
        self._nbytes: Optional[int] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls, model: MultiTaskMLP, weight_dtype: str = "float16"
    ) -> "InferenceSession":
        """Freeze a trained model into an inference session."""
        shared = [(layer.weight.value, layer.bias.value) for layer in model.shared]
        heads = {
            task: [(layer.weight.value, layer.bias.value) for layer in chain]
            for task, chain in model.heads.items()
        }
        return cls(model.spec, shared, heads, weight_dtype=weight_dtype)

    # ------------------------------------------------------------------
    @property
    def tasks(self) -> Tuple[str, ...]:
        """Task names served by this session."""
        return self.spec.tasks

    def run_logits(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Raw output logits per task for one input batch."""
        h = np.asarray(x, dtype=np.float32)
        for w, b in self._shared:
            h = relu(h @ w.astype(np.float32) + b.astype(np.float32))
        out: Dict[str, np.ndarray] = {}
        for task, chain in self._heads.items():
            t = h
            for w, b in chain[:-1]:
                t = relu(t @ w.astype(np.float32) + b.astype(np.float32))
            w, b = chain[-1]
            out[task] = t @ w.astype(np.float32) + b.astype(np.float32)
        return out

    def run(
        self, x: np.ndarray, batch_size: Optional[int] = 65536
    ) -> Dict[str, np.ndarray]:
        """Predicted label codes per task (argmax), computed in batches."""
        x = np.asarray(x, dtype=np.float32)
        if batch_size is None or x.shape[0] <= batch_size:
            return {t: lg.argmax(axis=1).astype(np.int64)
                    for t, lg in self.run_logits(x).items()}
        outs = {task: np.empty(x.shape[0], dtype=np.int64) for task in self.tasks}
        for start in range(0, x.shape[0], batch_size):
            stop = min(start + batch_size, x.shape[0])
            logits = self.run_logits(x[start:stop])
            for task in self.tasks:
                outs[task][start:stop] = logits[task].argmax(axis=1)
        return outs

    # ------------------------------------------------------------------
    # Serialization / size accounting
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """Array-first state for the zero-copy container.

        Every weight array stays first-class, so the RZC2 container
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
            "shared": [(w, b) for w, b in self._shared],
            "heads": {task: [(w, b) for w, b in chain]
                      for task, chain in self._heads.items()},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "InferenceSession":
        """Inverse of :meth:`to_state` — adopts the arrays without
        copying or re-casting (read-only mmap views stay views; the
        forward pass only ever reads them)."""
        session = cls.__new__(cls)
        session.spec = _spec_from_dict(state["spec"])
        session.weight_dtype = np.dtype(state["weight_dtype"])
        session._shared = [tuple(pair) for pair in state["shared"]]
        session._heads = {task: [tuple(pair) for pair in chain]
                          for task, chain in state["heads"].items()}
        session._nbytes = None
        return session

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Named float32 weight arrays in the trainable model's layout,
        enabling warm-started retraining (paper Sec. V-D future work)."""
        arrays: Dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(self._shared):
            arrays[f"shared/{i}.W"] = w.astype(np.float32)
            arrays[f"shared/{i}.b"] = b.astype(np.float32)
        for task, chain in self._heads.items():
            for i, (w, b) in enumerate(chain):
                arrays[f"{task}/{i}.W"] = w.astype(np.float32)
                arrays[f"{task}/{i}.b"] = b.astype(np.float32)
        return arrays

    @property
    def nbytes(self) -> int:
        """Serialized model size — the ``size(M)`` term in Eq. 1: the
        spec and every weight array of :meth:`to_state`, pickled.

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
        total = sum(w.size + b.size for w, b in self._shared)
        for chain in self._heads.values():
            total += sum(w.size + b.size for w, b in chain)
        return total

    def __repr__(self) -> str:
        return (
            f"InferenceSession(tasks={list(self.tasks)}, "
            f"params={self.param_count()}, dtype={self.weight_dtype})"
        )
