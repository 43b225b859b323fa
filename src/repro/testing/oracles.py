"""Parity oracles: the read path's two predecessors, kept as references.

Production serves one read path (``repro.shard.read_path`` over each
shard's compiled :class:`~repro.core.deep_mapping.LookupPlan`).  The
two implementations it replaced stay here, written the slow obvious
way, so every parity suite and benchmark keeps an independent answer
to hold it against — nothing in ``repro`` outside this package can
select them:

- :func:`reference_lookup` — Algorithm 1 as the paper writes it for
  one :class:`~repro.core.deep_mapping.DeepMapping`: ``V_exist``, then
  the reference :class:`~repro.nn.inference.InferenceSession` over
  **every** key, then ``T_aux`` overrides, then decode.  No compiled
  kernel, no aux-gated inference; no write runs it either.
- :func:`barrier_lookup` — the pre-pipeline sharded read: route, stable
  sort by shard ordinal only, one complete lookup per shard, then
  concatenate and inverse-permute.  No filters, no shared sort, no
  streaming scatter, no executor.

They compose: ``barrier_lookup(store, keys, shard_lookup=
reference_lookup)`` is "reference engine, barrier merge".
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.deep_mapping import LookupResult, normalize_keys

__all__ = ["barrier_lookup", "reference_lookup"]

_ZERO_CODE = np.zeros(1, dtype=np.int64)


def reference_lookup(mapping, keys) -> LookupResult:
    """Algorithm 1, unoptimized, over one (unsharded) structure.

    Bit-identical to ``mapping.lookup(keys)``: ``T_aux`` holds every
    stored key under the compiled kernel's ``tie_margin``, so the two
    engines may disagree only on keys ``T_aux`` overrides, and misses
    read the deterministic ``vocab[0]`` filler in both.
    """
    key_cols = normalize_keys(keys, mapping.key_names)
    flat, in_domain = mapping.key_codec.try_flatten(key_cols)
    found = mapping.exist.test_batch(flat) & in_domain
    codes = mapping.session.run(mapping.key_encoder.encode(flat),
                                batch_size=mapping.config.inference_batch)
    hits = np.flatnonzero(found)
    hits = hits[np.argsort(flat[hits], kind="stable")]
    aux_hit, aux_codes = mapping.aux.lookup_batch(flat[hits])
    values = {}
    for task in mapping.value_names:
        encoder = mapping.fdecode.encoders[task]
        task_codes = codes[task].copy()
        task_codes[hits[aux_hit]] = aux_codes[task][aux_hit]
        out = encoder.decode(np.clip(task_codes, 0, encoder.cardinality - 1))
        out[~found] = encoder.decode(_ZERO_CODE)[0]
        values[task] = out
    return LookupResult(found=found, values=values)


def barrier_lookup(
        store, keys,
        shard_lookup: Callable = lambda shard, segment: shard.lookup(segment),
) -> LookupResult:
    """The pre-pipeline sharded read over ``store``'s current topology.

    ``shard_lookup(shard, segment)`` answers one shard's segment;
    the default is the shard's own ``lookup`` (pass
    :func:`reference_lookup` for the reference engine).  Deliberately
    unpruned — the store filter is ignored — so the pruned read path
    can be held against it.
    """
    router, shards = store.router, store.shards
    key_cols = normalize_keys(keys, store.key_names)
    n = int(np.asarray(key_cols[store.key_names[0]]).size)
    if n == 0:
        return LookupResult(
            found=np.zeros(0, dtype=bool),
            values={c: store._placeholder(c, 0) for c in store.value_names})
    if router.n_shards == 1 and shards[0] is not None:
        return shard_lookup(shards[0], key_cols)

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
                values={c: store._placeholder(c, stop - start)
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
                for column in store.value_names})
