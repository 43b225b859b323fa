"""Parity oracles: the predictor's and the read path's predecessors.

Production runs one predictor (:class:`~repro.nn.compiled.CompiledSession`)
and serves one read path (``repro.shard.read_path``: one
:class:`~repro.core.plan.LookupPlan` per request).  The
implementations they replaced stay here, written the slow obvious way,
so every parity suite and benchmark keeps an independent answer to hold
them against — nothing in ``repro`` outside this package can select
them:

- :func:`reference_logits` — the textbook forward pass of a stored
  session: one GEMM per layer, the first over the dense one-hot matrix.
- :func:`reference_lookup` — Algorithm 1 as the paper writes it for
  one :class:`~repro.core.deep_mapping.Shard`: ``V_exist``, then
  :func:`reference_logits` over **every** key, then ``T_aux``
  overrides, then decode.  No compiled kernel, no aux-gated inference.
- :func:`barrier_lookup` — the pre-pipeline read: route, stable sort by
  shard ordinal only, one complete lookup per shard, then concatenate
  and inverse-permute.  No store-level existence stage
  (every miss goes to its shard), no shared sort, no streaming
  scatter, no executor.

They compose: ``barrier_lookup(store, keys, shard_lookup=
reference_lookup)`` is "reference engine, barrier merge".
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..core.deep_mapping import normalize_keys
from ..core.plan import LookupResult, blank
from ..nn.activations import relu

__all__ = ["barrier_lookup", "reference_logits", "reference_lookup"]


def reference_logits(session, x) -> Dict[str, np.ndarray]:
    """Output logits per task of ``session``'s float32 layers (the arrays
    the compiled kernel folds into its tables) over one-hot rows ``x``."""
    shared, heads = session.float_layers()
    h = np.asarray(x, dtype=np.float32)
    for w, b in shared:
        h = relu(h @ w + b)
    out: Dict[str, np.ndarray] = {}
    for task, chain in heads.items():
        t = h
        for w, b in chain[:-1]:
            t = relu(t @ w + b)
        w, b = chain[-1]
        out[task] = t @ w + b
    return out


def reference_lookup(shard, keys) -> LookupResult:
    """Algorithm 1, unoptimized, over one shard.

    Bit-identical to ``shard.plan_lookup(keys).execute()``: ``T_aux``
    holds every stored key under the compiled kernel's ``tie_margin``,
    so the two engines may disagree only on keys ``T_aux`` overrides,
    and misses read the :func:`~repro.core.plan.blank` in both.  A key
    another shard owns reads as that shard's ``T_aux`` would not: pass
    a store through :func:`barrier_lookup` to answer any key.
    """
    model = shard.model
    key_cols = normalize_keys(keys, model.key_codec.key_names)
    flat, in_domain = model.key_codec.try_flatten(key_cols)
    found = shard.exist.test_batch(flat) & in_domain
    logits = reference_logits(model.session, model.key_encoder.encode(flat))
    hits = np.flatnonzero(found)
    hits = hits[np.argsort(flat[hits], kind="stable")]
    aux_hit, aux_codes = shard.aux.lookup_batch(flat[hits])
    values = {}
    for task in model.fdecode.columns:
        encoder = model.fdecode.encoders[task]
        task_codes = logits[task].argmax(axis=1)
        task_codes[hits[aux_hit]] = aux_codes[task][aux_hit]
        out = encoder.decode(np.clip(task_codes, 0, encoder.cardinality - 1))
        out[~found] = blank(1, out.dtype)[0]
        values[task] = out
    return LookupResult(found=found, values=values)


def _plan_lookup(shard, segment) -> LookupResult:
    return shard.plan_lookup(segment).execute()


def barrier_lookup(store, keys,
                   shard_lookup: Callable = _plan_lookup) -> LookupResult:
    """The pre-pipeline read over ``store``'s current topology.

    ``shard_lookup(shard, segment)`` answers one shard's segment;
    the default runs the shard's own plan (pass
    :func:`reference_lookup` for the reference engine).  Deliberately
    unpruned — every miss is routed and answered by its shard's plan —
    so the pruned read path can be held against it.  Every column comes
    back in the store's
    :meth:`~repro.shard.DeepMapping.value_dtype`.
    """
    router, shards = store.router, store.shards
    key_cols = normalize_keys(keys, store.key_names)
    n = int(np.asarray(key_cols[store.key_names[0]]).size)
    if n == 0:
        return LookupResult(
            found=np.zeros(0, dtype=bool),
            values={c: blank(0, store.value_dtype(c))
                    for c in store.value_names})

    shard_ids = router.route(key_cols)
    order = np.argsort(shard_ids, kind="stable")
    grouped = {name: np.asarray(arr)[order] for name, arr in key_cols.items()}
    bounds = np.searchsorted(shard_ids[order], np.arange(router.n_shards + 1))

    results = []
    for ordinal, shard in enumerate(shards):
        start, stop = int(bounds[ordinal]), int(bounds[ordinal + 1])
        if stop <= start:
            continue
        if shard is None:  # an empty shard's keys are misses by definition
            results.append(LookupResult(
                found=np.zeros(stop - start, dtype=bool),
                values={c: blank(stop - start, store.value_dtype(c))
                        for c in store.value_names}))
            continue
        results.append(shard_lookup(
            shard, {name: arr[start:stop] for name, arr in grouped.items()}))

    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n)
    return LookupResult(
        found=np.concatenate([r.found for r in results])[inverse],
        values={column: np.concatenate([r.values[column]
                                        for r in results])[inverse]
                .astype(store.value_dtype(column))
                for column in store.value_names})
