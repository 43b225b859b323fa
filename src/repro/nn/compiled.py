"""Compiled query-time kernel: the one predictor of the frozen model.

:class:`~repro.nn.inference.InferenceSession` only stores the model: the
weights as they reach disk (bit-packed integers plus per-channel
scales, or plain ``weight_dtype`` arrays).  :class:`CompiledSession`
freezes those weights into the tightest kernel the input structure
allows, and every prediction in the package runs through it — lookups,
the rows ``T_aux`` must hold at build and on every write
(:meth:`CompiledSession.lost_rows`), and MHAS's pricing of candidates:

1. **Same float32 weights, dequantised once** — the kernel is built from
   :meth:`InferenceSession.float_layers`, the session's memoised float32
   arrays, so the stored width never reaches a batch: no unpack and no
   ``astype`` runs per batch per layer.
2. **Gather-fused first layer** — the model's input is a concatenation of
   one-hot digit blocks (:class:`~repro.data.encoding.KeyEncoder`), so
   ``x @ W1 + b1`` is exactly a sum of one ``W1`` row per digit position.
   At compile time consecutive digit positions are folded into *group
   tables*: a group of ``g`` positions of base ``b`` becomes one
   ``(b**g, hidden)`` table of precomputed partial sums (the
   per-(digit-position, digit-value) rows of ``W1``, summed across the
   group).  At query time each group's index is read straight off the
   flat integer key with one divide and one modulo, and the first layer
   reduces to a couple of table gathers — the ``(n, input_dim)`` one-hot
   matrix is never materialized and the widest GEMM of the network
   disappears.
3. **One scratch arena per thread** — activation buffers and the
   group-index vector are views carved out of one thread-local arena
   that every :class:`CompiledSession` shares, reused across batches,
   chunks and sessions, so steady-state inference does no large
   allocations and kernel memory follows threads, not shards × threads;
   gathers use ``np.take(..., mode="clip", out=...)``,
   whose unchecked path is several times faster than bounds-checked take
   (indices are in-range by construction).

The compiled kernel consumes *flat integer keys* (the output of
:meth:`~repro.data.encoding.CompositeKeyCodec.flatten`), not encoded
feature vectors.  At query time the staged read path
(:class:`~repro.core.plan.LookupPlan`) gates this kernel twice
over: it runs only on keys that pass the existence mask *and* have no
``T_aux`` override (an aux row would overwrite the prediction anyway),
so on negative-heavy or high-churn batches most of the inference cost
never happens.

**Tie margin.**  Pre-summed group tables, another BLAS or another batch
shape round float32 logits differently, enough to flip a near-tie
argmax.  :attr:`CompiledSession.tie_margin` bounds that from the frozen
layers and float32 epsilon alone; :meth:`CompiledSession.lost_rows`
counts the keys whose top-two gap is under it beside the wrong ones.
That keeps the textbook one-hot forward pass
(``repro.testing.oracles.reference_logits``) a bit-exact parity oracle
without it ever running outside the tests.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.encoding import KeyEncoder
from .inference import InferenceSession

__all__ = ["CHUNK_ROWS", "CompiledSession"]

#: Keys per forward pass: a large batch runs in chunks of this many, so
#: one huge call never permanently grows the thread-local scratch.
CHUNK_ROWS = 65536

#: Per-group table budget: tables are meant to sit in L2 while a batch
#: streams through them, and build cost must stay negligible.
_TABLE_BYTES_CAP = 1 << 20

#: One gathered digit group: (partial-sum table, key divisor, radix).
_Group = Tuple[np.ndarray, int, int]

#: The calling thread's scratch arena, shared by every session (see
#: :meth:`CompiledSession._scratch`).
_ARENA = threading.local()


class _FusedLayer:
    """First layer compiled to grouped gathers over flat keys."""

    def __init__(self, groups: List[_Group], relu: bool, slot: str):
        self.groups = groups
        self.relu = relu
        self.slot = slot


class _DenseLayer:
    """A cached-float32 GEMM layer (every layer after the first)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray, relu: bool,
                 slot: str):
        self.weight = weight
        self.bias = bias
        self.relu = relu
        self.slot = slot


class CompiledSession:
    """Fused gather-based inference over flat integer keys.

    Parameters
    ----------
    session:
        The frozen model (any stored width).
    key_encoder:
        The fitted encoder whose one-hot layout the model was trained on;
        its ``input_dim`` must match the model's.
    """

    def __init__(self, session: InferenceSession, key_encoder: KeyEncoder):
        if key_encoder.widths is None:
            raise ValueError("key encoder is not fitted")
        if key_encoder.input_dim != session.spec.input_dim:
            raise ValueError(
                f"encoder input_dim {key_encoder.input_dim} does not match "
                f"model input_dim {session.spec.input_dim}"
            )
        self.session = session
        self.key_encoder = key_encoder
        self.tasks = session.tasks

        self._slot_widths: Dict[str, int] = {}
        # The first layer consuming the one-hot input gets the gather
        # fusion: the shared trunk's first layer when a trunk exists,
        # otherwise every head chain's first layer.
        shared, heads = session.float_layers()
        # Slot names are namespaced ("trunk/" vs "head/") so a value
        # column whose name collides with an internal scope (e.g. a task
        # literally called "shared") can never alias a trunk buffer.
        self._trunk: List[object] = []
        for i, (w, b) in enumerate(shared):
            self._trunk.append(self._compile_layer(
                f"trunk/{i}", w, b, relu=True, fuse=i == 0))
        self._heads: Dict[str, List[object]] = {}
        for task in self.tasks:
            chain = heads[task]
            self._heads[task] = [
                self._compile_layer(f"head/{task}/{i}", w, b,
                                    relu=i < len(chain) - 1,
                                    fuse=i == 0 and not shared)
                for i, (w, b) in enumerate(chain)
            ]

        #: Smallest top-two logit gap no float32 evaluation can flip.
        self.tie_margin = self._tie_margin()
        self._row_floats = sum(self._slot_widths.values())

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile_layer(self, scope: str, w: np.ndarray, b: np.ndarray,
                       relu: bool, fuse: bool):
        weight = np.ascontiguousarray(w, dtype=np.float32)
        bias = np.ascontiguousarray(b, dtype=np.float32).reshape(-1)
        self._slot_widths[scope] = weight.shape[1]
        if not fuse:
            return _DenseLayer(weight, bias, relu, scope)
        self._slot_widths[scope + "/tmp"] = weight.shape[1]
        return _FusedLayer(self._build_groups(weight, bias), relu, scope)

    def _build_groups(self, weight: np.ndarray,
                      bias: np.ndarray) -> List[_Group]:
        """Fold the first-layer weight rows into digit-group tables.

        The one-hot layout concatenates, per base ``b`` of width ``w``,
        ``w`` digit blocks of ``b`` columns; digit position ``p``
        (most-significant first) of key ``k`` is
        ``(k // b**(w-1-p)) % b``, and its one-hot block spans rows
        ``[offset + p*b, offset + (p+1)*b)`` of the weight.  A group of
        consecutive positions ``[lo, hi)`` therefore answers to the group
        index ``(k // b**(w-hi)) % b**(hi-lo)``, and its table holds the
        sum of one row per covered position for every possible index —
        precomputed once here.  The bias folds into the first table.
        """
        hidden = weight.shape[1]
        groups: List[_Group] = []
        offset = 0
        for base, width in zip(self.key_encoder.bases,
                               self.key_encoder.widths):
            size = 1
            while (size < width
                   and (base ** (size + 1)) * hidden * 4 <= _TABLE_BYTES_CAP):
                size += 1
            lo = 0
            while lo < width:
                hi = min(lo + size, width)
                table = None
                for p in range(lo, hi):
                    rows = weight[offset + p * base: offset + (p + 1) * base]
                    table = rows if table is None else (
                        table[:, None, :] + rows[None, :, :]
                    ).reshape(-1, hidden)
                groups.append((
                    np.ascontiguousarray(table),
                    base ** (width - hi),
                    base ** (hi - lo),
                ))
                lo = hi
            offset += base * width
        first = groups[0]
        groups[0] = (first[0] + bias, first[1], first[2])
        return groups

    def _tie_margin(self) -> float:
        """``τ = 4·max e`` over the output logits, ``e`` bounding one
        float32 evaluation's rounding error: the first layer has
        ``|h| ≤ Σ_groups max|table|``, ``e = γ_K·|h|`` with ``K`` = digit
        positions + 1; each later one ``|h| ← |W|ᵀ|h| + |b|``,
        ``e ← γ_{fan_in+1}·|h| + |W|ᵀe``.  Two evaluations differ by at
        most ``2e``, so a gap of ``4e`` cannot flip."""
        def gamma(k):  # rounding factor of a k-term float32 sum
            return k * 2.0 ** -24 / (1 - k * 2.0 ** -24)

        def bound(chain, h, e):
            for layer in chain:
                if isinstance(layer, _FusedLayer):
                    h = sum(np.abs(table).max(axis=0).astype(np.float64)
                            for table, _, _ in layer.groups)
                    e = gamma(sum(self.key_encoder.widths) + 1) * h
                else:
                    w = np.abs(layer.weight).astype(np.float64)
                    h = h @ w + np.abs(layer.bias)
                    e = gamma(w.shape[0] + 1) * h + e @ w
            return h, e

        h, e = bound(self._trunk, None, None)
        return 4.0 * max(float(bound(chain, h, e)[1].max())
                         for chain in self._heads.values())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _scratch(self, n: int) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """This pass's group-index vector and ``(n, width)`` slot views,
        carved out of the calling thread's arena.

        One arena per thread serves every session: it grows to the
        largest pass seen on that thread — at most :data:`CHUNK_ROWS`
        rows of the widest session — and is reused from then on.
        Sharing it is safe because a forward pass never interleaves with
        another on one thread, and :meth:`run`, :meth:`classify` and
        :meth:`run_logits` copy their answers out of scratch before they
        return.  Per thread because the sharded fan-out may run lookups
        from several threads at once.
        """
        arena = _ARENA
        floats = getattr(arena, "floats", None)
        if floats is None or floats.size < n * self._row_floats:
            arena.floats = floats = np.empty(n * self._row_floats,
                                             dtype=np.float32)
        if getattr(arena, "gidx", None) is None or arena.gidx.size < n:
            arena.gidx = np.empty(n, dtype=np.int64)
        slots, start = {}, 0
        for name, width in self._slot_widths.items():
            slots[name] = floats[start:start + n * width].reshape(n, width)
            start += n * width
        return arena.gidx[:n], slots

    def _apply(self, layer, h: Optional[np.ndarray], keys: np.ndarray,
               gidx: np.ndarray, slots: Dict[str, np.ndarray]) -> np.ndarray:
        out = slots[layer.slot]
        if isinstance(layer, _FusedLayer):
            tmp = slots[layer.slot + "/tmp"]
            for j, (table, shift, radix) in enumerate(layer.groups):
                if shift == 1:
                    # The least-significant group of every base: the
                    # divide is the identity, so skip one full 64-bit
                    # division pass over the batch.
                    np.remainder(keys, radix, out=gidx)
                else:
                    np.floor_divide(keys, shift, out=gidx)
                    np.remainder(gidx, radix, out=gidx)
                # mode="clip" skips bounds checking (indices are in
                # [0, radix) by construction) — several times faster.
                if j == 0:
                    np.take(table, gidx, axis=0, out=out, mode="clip")
                else:
                    np.take(table, gidx, axis=0, out=tmp, mode="clip")
                    np.add(out, tmp, out=out)
        else:
            np.matmul(h, layer.weight, out=out)
            np.add(out, layer.bias, out=out)
        if layer.relu:
            np.maximum(out, 0.0, out=out)
        return out

    def _forward(self, keys: np.ndarray) -> Dict[str, np.ndarray]:
        """Logit views (into scratch) per task for one chunk of flat keys."""
        gidx, slots = self._scratch(keys.size)
        h: Optional[np.ndarray] = None
        for layer in self._trunk:
            h = self._apply(layer, h, keys, gidx, slots)
        logits: Dict[str, np.ndarray] = {}
        for task, chain in self._heads.items():
            t = h
            for layer in chain:
                t = self._apply(layer, t, keys, gidx, slots)
            logits[task] = t
        return logits

    # ------------------------------------------------------------------
    def run_logits(self, flat_keys: np.ndarray) -> Dict[str, np.ndarray]:
        """Raw output logits per task (copied out of scratch)."""
        keys = self._checked(flat_keys)
        out = {task: np.empty((keys.size, self.session.spec.output_dims[task]),
                              dtype=np.float32)
               for task in self.tasks}
        for rows, logits in self._chunks(keys):
            for task in self.tasks:
                out[task][rows] = logits[task]
        return out

    def run(self, flat_keys: np.ndarray) -> Dict[str, np.ndarray]:
        """Predicted label codes per task (argmax)."""
        keys = self._checked(flat_keys)
        out = {task: np.empty(keys.size, dtype=np.int64) for task in self.tasks}
        for rows, logits in self._chunks(keys):
            for task in self.tasks:
                out[task][rows] = logits[task].argmax(axis=1)
        return out

    def classify(
        self, flat_keys: np.ndarray
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """:meth:`run` plus a per-key flag: some task's top-two logit gap
        is below :attr:`tie_margin`, so another float32 evaluation of
        this model could answer that key differently."""
        keys = self._checked(flat_keys)
        out = {task: np.empty(keys.size, dtype=np.int64) for task in self.tasks}
        ties = np.zeros(keys.size, dtype=bool)
        for rows, logits in self._chunks(keys):
            for task, task_logits in logits.items():
                out[task][rows] = task_logits.argmax(axis=1)
                if task_logits.shape[1] > 1:
                    top = np.partition(task_logits, -2, axis=1)
                    ties[rows] |= top[:, -1] - top[:, -2] < self.tie_margin
        return out, ties

    def lost_rows(self, flat_keys: np.ndarray,
                  labels: Dict[str, np.ndarray]) -> np.ndarray:
        """The rows ``T_aux`` must hold under this kernel: some task's
        answer differs from its label code, or is under the tie margin
        (:meth:`classify`)."""
        codes, lost = self.classify(flat_keys)
        for task, label in labels.items():
            lost |= codes[task] != np.asarray(label)
        return lost

    def _chunks(self, keys: np.ndarray):
        """``(rows, logits)`` per chunk of :data:`CHUNK_ROWS` keys."""
        for start in range(0, keys.size, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            yield rows, self._forward(keys[rows])

    def _checked(self, flat_keys) -> np.ndarray:
        keys = np.asarray(flat_keys, dtype=np.int64).reshape(-1)
        if keys.size and keys.min() < 0:
            raise ValueError("keys must be non-negative")
        return keys

    def __repr__(self) -> str:
        n_tables = sum(
            len(layer.groups)
            for layer in [*self._trunk,
                          *(l for c in self._heads.values() for l in c)]
            if isinstance(layer, _FusedLayer)
        )
        return (
            f"CompiledSession(tasks={list(self.tasks)}, "
            f"group_tables={n_tables}, "
            f"params={self.session.param_count()})"
        )
