"""The shared multi-task memorization network (paper Sec. IV-A).

A :class:`MultiTaskMLP` is a trunk of *shared* fully connected layers that
abstract the key, followed by one chain of *private* layers per value column
(task), each ending in a softmax output over that column's vocabulary.  The
number and width of shared/private layers is exactly what MHAS searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .layers import Dense, Parameter
from .losses import softmax_cross_entropy

__all__ = ["ArchitectureSpec", "MultiTaskMLP"]

#: Signature of a weight provider: (scope, in_dim, out_dim) -> (weight, bias).
WeightProvider = Callable[[str, int, int], Tuple[Parameter, Parameter]]


@dataclass(frozen=True)
class ArchitectureSpec:
    """Complete description of a multi-task model's shape.

    Attributes
    ----------
    input_dim:
        Width of the encoded key vector.
    shared_sizes:
        Hidden widths of the shared trunk (may be empty).
    private_sizes:
        Hidden widths of each task's private chain (may be empty per task).
    output_dims:
        Softmax width (value-column cardinality) per task.
    """

    input_dim: int
    shared_sizes: Tuple[int, ...]
    private_sizes: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    output_dims: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if set(self.private_sizes) != set(self.output_dims):
            raise ValueError("private_sizes and output_dims must share task names")
        if not self.output_dims:
            raise ValueError("at least one task is required")
        for task, dim in self.output_dims.items():
            if dim <= 0:
                raise ValueError(f"output dim for task {task!r} must be positive")

    @property
    def tasks(self) -> Tuple[str, ...]:
        """Task names in deterministic order."""
        return tuple(sorted(self.output_dims))

    def trunk_output_dim(self) -> int:
        """Width of the representation entering the private chains."""
        return self.shared_sizes[-1] if self.shared_sizes else self.input_dim

    def layer_plan(self) -> List[Tuple[str, int, int]]:
        """Flat list of ``(scope, in_dim, out_dim)`` for every dense layer."""
        plan: List[Tuple[str, int, int]] = []
        prev = self.input_dim
        for i, width in enumerate(self.shared_sizes):
            plan.append((f"shared/{i}", prev, width))
            prev = width
        trunk = prev
        for task in self.tasks:
            prev = trunk
            for i, width in enumerate(self.private_sizes[task]):
                plan.append((f"{task}/private/{i}", prev, width))
                prev = width
            plan.append((f"{task}/out", prev, self.output_dims[task]))
        return plan

    def param_count(self) -> int:
        """Number of scalar weights the spec implies."""
        return sum(i * o + o for _, i, o in self.layer_plan())


class MultiTaskMLP:
    """Shared-trunk multi-task classifier with manual backprop.

    Parameters
    ----------
    spec:
        The architecture to instantiate.
    rng:
        Generator for fresh Glorot weights (unused when ``weights`` given).
    weights:
        Optional provider mapping ``(scope, in_dim, out_dim)`` to shared
        :class:`Parameter` pairs — the hook the MHAS weight bank uses so all
        sampled architectures train the same underlying tensors.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        rng: Optional[np.random.Generator] = None,
        weights: Optional[WeightProvider] = None,
    ):
        self.spec = spec
        self.shared: List[Dense] = []
        self.heads: Dict[str, List[Dense]] = {}

        def make(scope: str, in_dim: int, out_dim: int, activation: str) -> Dense:
            if weights is not None:
                w, b = weights(scope, in_dim, out_dim)
                return Dense(in_dim, out_dim, activation=activation,
                             weight=w, bias=b, name=scope)
            return Dense(in_dim, out_dim, rng=rng, activation=activation, name=scope)

        prev = spec.input_dim
        for i, width in enumerate(spec.shared_sizes):
            self.shared.append(make(f"shared/{i}", prev, width, "relu"))
            prev = width
        trunk = prev
        for task in spec.tasks:
            chain: List[Dense] = []
            prev = trunk
            for i, width in enumerate(spec.private_sizes[task]):
                chain.append(make(f"{task}/private/{i}", prev, width, "relu"))
                prev = width
            chain.append(make(f"{task}/out", prev, spec.output_dims[task], "linear"))
            self.heads[task] = chain

    # ------------------------------------------------------------------
    @property
    def tasks(self) -> Tuple[str, ...]:
        """Task names in deterministic order."""
        return self.spec.tasks

    def forward(self, x: np.ndarray, train: bool = True) -> Dict[str, np.ndarray]:
        """Logits per task for input batch ``x``."""
        h = np.asarray(x)
        if h.dtype not in (np.float32, np.float64):
            h = h.astype(np.float32)
        for layer in self.shared:
            h = layer.forward(h, train=train)
        out: Dict[str, np.ndarray] = {}
        for task, chain in self.heads.items():
            t = h
            for layer in chain:
                t = layer.forward(t, train=train)
            out[task] = t
        return out

    def loss_and_grad(self, x: np.ndarray, labels: Dict[str, np.ndarray]) -> float:
        """Summed cross entropy over tasks; accumulates parameter grads.

        Following the paper, the multi-task loss is the sum of each task's
        cross entropy; the shared trunk receives the sum of head gradients.
        """
        logits = self.forward(x, train=True)
        total = 0.0
        dtrunk: Optional[np.ndarray] = None
        for task in self.tasks:
            loss, dlogit = softmax_cross_entropy(logits[task], labels[task])
            total += loss
            grad = dlogit
            for layer in reversed(self.heads[task]):
                grad = layer.backward(grad)
            dtrunk = grad if dtrunk is None else dtrunk + grad
        grad = dtrunk
        for layer in reversed(self.shared):
            grad = layer.backward(grad)
        return total

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Unique parameters across trunk and heads."""
        seen: Dict[int, Parameter] = {}
        for layer in self.shared:
            for param in layer.parameters():
                seen[id(param)] = param
        for chain in self.heads.values():
            for layer in chain:
                for param in layer.parameters():
                    seen[id(param)] = param
        return list(seen.values())

    def param_count(self) -> int:
        """Total scalar weights."""
        return sum(p.size for p in self.parameters())

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Named weight arrays (used by the inference session serializer)."""
        arrays: Dict[str, np.ndarray] = {}
        for scope, layer in self._named_layers():
            arrays[f"{scope}.W"] = layer.weight.value
            arrays[f"{scope}.b"] = layer.bias.value
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> int:
        """Warm-start: copy weights whose name and shape both match.

        Implements the paper's future-work "model reuse" direction
        (Sec. V-D): a retrain initialized from the previous model converges
        much faster than training from scratch.  Layers whose shape changed
        (e.g. a wider key encoding after domain growth, or a grown
        vocabulary head) keep their fresh initialization.  Returns the
        number of tensors transferred.
        """
        loaded = 0
        for scope, layer in self._named_layers():
            for suffix, param in (("W", layer.weight), ("b", layer.bias)):
                source = arrays.get(f"{scope}.{suffix}")
                if source is not None and source.shape == param.value.shape:
                    param.value[...] = np.asarray(source, dtype=np.float32)
                    loaded += 1
        return loaded

    def _named_layers(self) -> List[Tuple[str, Dense]]:
        named: List[Tuple[str, Dense]] = [
            (f"shared/{i}", layer) for i, layer in enumerate(self.shared)
        ]
        for task in self.tasks:
            named.extend((f"{task}/{i}", layer)
                         for i, layer in enumerate(self.heads[task]))
        return named

    def __repr__(self) -> str:
        return (
            f"MultiTaskMLP(shared={self.spec.shared_sizes}, "
            f"tasks={ {t: self.spec.private_sizes[t] for t in self.tasks} }, "
            f"params={self.param_count()})"
        )
