"""The MHAS objective (paper Eq. 1) and its fast estimators.

The controller's reward is the *negated* hybrid size ratio::

    ratio = (size(M) + size(T_aux) + size(V_exist) + size(f_decode)) / size(D)

Evaluating a candidate exactly would mean serializing the model and
rebuilding the auxiliary table per sample; during search we instead
size the model from its shape at the storage width the freeze would
pick (:func:`repro.nn.inference.choose_width` — the same chooser, run on
a row sample) and ``size(T_aux)`` from the share of sampled rows that
width's compiled kernel loses
(:meth:`~repro.nn.compiled.CompiledSession.lost_rows`, the one
definition of the rows ``T_aux`` holds) times the compressed bytes per
row the build measured with its own codec — cheap enough to score
thousands of candidates, and the same expression
:meth:`Model.fit <repro.core.model.Model.fit>`
minimises over all rows when it freezes the winner.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ...data.encoding import KeyEncoder
from ...nn.compiled import CompiledSession
from ...nn.inference import InferenceSession, choose_width, weight_nbytes
from ...nn.multitask import ArchitectureSpec, MultiTaskMLP
from ...storage.codecs import get_codec
from ...storage.serializer import minimal_int_dtype, serialize_block

__all__ = [
    "approx_model_bytes",
    "measure_aux_bytes_per_row",
    "estimate_ratio",
    "flops_per_lookup",
]

#: Serialization overhead per layer (names, shapes) on top of raw weights.
_PER_LAYER_OVERHEAD = 120


def _framing_bytes(spec: ArchitectureSpec) -> int:
    return len(spec.layer_plan()) * _PER_LAYER_OVERHEAD


def approx_model_bytes(spec: ArchitectureSpec, bits: Optional[int] = None,
                       weight_dtype: str = "float16") -> int:
    """Estimated frozen-model size at a storage width (``bits=None``:
    unpacked ``weight_dtype``) without serializing it."""
    return weight_nbytes(spec, bits, weight_dtype) + _framing_bytes(spec)


def measure_aux_bytes_per_row(
    flat_keys: np.ndarray,
    labels: Dict[str, np.ndarray],
    codec: str = "zstd",
    partition_bytes: int = 64 * 1024,
) -> float:
    """Compressed bytes per auxiliary row, measured on one partition.

    Prices a partition the way ``T_aux`` stored rows before key gaps:
    int64 keys beside per-task codes at their narrowest dtype, pickled,
    as many rows as one partition of ``partition_bytes`` holds, and
    compressed with ``codec`` (a partition's framing is a real share of
    a small one, so the partition size is part of the measurement).
    The stored layout (:func:`~repro.storage.partition.encode_partition`)
    costs about a third of this.  The price is kept on purpose: at the
    stored layout's price the width chooser moves most shards to 3-bit
    weights, and their extra auxiliary rows make the lifecycle retrain
    under writes (docs/performance.md, "``T_aux`` layout").
    """
    n = flat_keys.size
    if n == 0:
        return 1.0
    dtypes = {task: minimal_int_dtype(int(np.max(codes)))
              for task, codes in labels.items()}
    row_bytes = 8 + sum(dtype.itemsize for dtype in dtypes.values())
    take = min(n, max(1, partition_bytes // row_bytes))
    first = np.argsort(flat_keys, kind="stable")[:take]
    block = {"keys": np.asarray(flat_keys, dtype=np.int64)[first],
             "columns": {task: np.asarray(labels[task])[first].astype(dtype)
                         for task, dtype in dtypes.items()}}
    compressed = len(get_codec(codec).compress(serialize_block(block)))
    return max(compressed / take, 0.25)


def estimate_ratio(
    model: MultiTaskMLP,
    key_encoder: KeyEncoder,
    flat_keys: np.ndarray,
    labels: Dict[str, np.ndarray],
    aux_bytes_per_row: float,
    overhead_bytes: int,
    dataset_bytes: int,
    sample_idx: np.ndarray,
    weight_dtype: str = "float16",
) -> float:
    """Estimated Eq. 1 ratio for a candidate model over ``flat_keys``.

    The candidate is frozen the way a build would freeze it — at the
    storage width :func:`~repro.nn.inference.choose_width` picks, with
    ``weight_dtype`` as the upper bound — and each width is charged the
    share of the rows ``sample_idx`` selects that its compiled kernel
    (over ``key_encoder``'s layout) loses, scaled to every key at
    ``aux_bytes_per_row``.  ``overhead_bytes`` carries the
    (architecture-independent) ``size(V_exist) + size(f_decode)`` terms.
    """
    if dataset_bytes <= 0:
        raise ValueError("dataset_bytes must be positive")
    sample_keys = np.asarray(flat_keys)[sample_idx]
    sample_labels = {task: np.asarray(lab)[sample_idx]
                     for task, lab in labels.items()}

    def aux_bytes(candidate: InferenceSession) -> float:
        if not sample_idx.size:
            return 0.0
        lost = CompiledSession(candidate, key_encoder).lost_rows(
            sample_keys, sample_labels)
        return float(lost.mean()) * len(flat_keys) * aux_bytes_per_row

    _, eq1_bytes = choose_width(model, weight_dtype, aux_bytes)
    return (eq1_bytes + _framing_bytes(model.spec)
            + overhead_bytes) / dataset_bytes


def flops_per_lookup(spec: ArchitectureSpec) -> int:
    """Multiply-accumulate count of one forward pass — the latency proxy
    used when plotting the search's compression/latency trade-off
    (paper Fig. 10)."""
    return sum(i * o for _, i, o in spec.layer_plan())
