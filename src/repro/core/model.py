"""One model per table: the frozen half of a DeepMapping (paper Sec. IV).

A :class:`Model` is what a table's build fixes once: ``M`` (the frozen
session, served through its compiled kernel and tie margin τ), the key
codec and key encoder over the global key domain, the decode map
``f_decode`` and the build config.  :meth:`Model.fit` is the one place
anything trains; ``T_aux`` and ``V_exist`` of a key window are
materialized under a model by
:meth:`~repro.core.deep_mapping.DeepMapping.materialize` — one window
for a monolithic structure, one per shard for a sharded store.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

import numpy as np

from ..data.encoding import CompositeKeyCodec, DecodeMap, KeyEncoder
from ..data.table import ColumnTable
from ..nn.compiled import CompiledSession
from ..nn.inference import InferenceSession, choose_width
from ..nn.multitask import ArchitectureSpec, MultiTaskMLP
from ..nn.optimizers import Adam, ExponentialDecay
from ..nn.training import Trainer
from .config import DeepMappingConfig
from .mhas.reward import measure_aux_bytes_per_row

__all__ = ["Model", "Fit", "require_unique"]


def require_unique(flat: np.ndarray) -> None:
    """The one check that rows' flat keys identify them: a build and an
    insert batch both refuse a key they repeat (``ValueError``)."""
    repeated = flat.size - np.unique(flat).size
    if repeated:
        raise ValueError(f"{repeated} duplicate key(s): the designated "
                         "key does not uniquely identify rows")


class Fit(NamedTuple):
    """A fresh model and its table encoded: flat keys, label codes per
    task, and the rows ``T_aux`` must hold under it."""

    model: "Model"
    flat: np.ndarray
    labels: Dict[str, np.ndarray]
    lost: np.ndarray


class Model:
    """The frozen model of one table and the encodings it answers in."""

    def __init__(self, config: DeepMappingConfig,
                 key_codec: CompositeKeyCodec, key_encoder: KeyEncoder,
                 session: InferenceSession, fdecode: DecodeMap,
                 dataset_bytes: int):
        self.config = config
        self.key_codec = key_codec
        self.key_encoder = key_encoder
        self.session = session
        self.fdecode = fdecode
        #: Raw size of the table the model was fit on (Eq. 1's baseline).
        self.dataset_bytes = int(dataset_bytes)
        self._compiled: Optional[CompiledSession] = None
        #: The fit's MHAS outcome, its TrainingResult and how many
        #: tensors a warm start transferred (None / None / 0 when
        #: loaded or without search / warm start).
        self.search_history = None
        self.last_training = None
        self.warm_started_tensors = 0

    @classmethod
    def fit(cls, table: ColumnTable,
            config: Optional[DeepMappingConfig] = None,
            warm_start: Optional[Dict[str, np.ndarray]] = None) -> Fit:
        """Train the one model of ``table``: encode keys and values,
        pick an architecture (fixed sizes, or MHAS when
        ``config.use_search``), train, and freeze at the width that
        minimises Eq. 1 (:func:`~repro.nn.inference.choose_width`), each
        candidate priced by the rows ``T_aux`` would hold under its own
        kernel — so what quantisation loses lands in ``T_aux``, never in
        an answer.  ``warm_start`` carries named weight arrays of a
        previous model; those whose shape still matches seed training
        (the paper's model-reuse retraining, Sec. V-D)."""
        config = config if config is not None else DeepMappingConfig()
        rng = np.random.default_rng(config.seed)

        key_cols = table.key_columns_dict()
        first_key = np.asarray(key_cols[table.key[0]], dtype=np.int64)
        extent = int(first_key.max() - first_key.min() + 1)
        headroom = int(extent * config.key_headroom_fraction)
        key_codec = CompositeKeyCodec(table.key).fit(key_cols,
                                                     headroom=headroom)
        flat = key_codec.flatten(key_cols)
        require_unique(flat)

        value_cols = table.value_columns_dict()
        if not value_cols:
            raise ValueError("table has no value columns to learn")
        fdecode = DecodeMap.fit(value_cols)
        labels = fdecode.encode(value_cols)

        key_encoder = KeyEncoder(config.key_base).fit(key_codec.domain_size - 1)
        x = key_encoder.encode(flat)

        search_history = None
        if config.use_search:
            from .mhas import MHASConfig, search as mhas_search

            search_cfg = config.search if config.search is not None else MHASConfig()
            outcome = mhas_search(
                x,
                labels,
                output_dims=fdecode.cardinalities(),
                dataset_bytes=table.uncompressed_bytes(),
                overhead_bytes=fdecode.nbytes,
                flat_keys=flat,
                key_encoder=key_encoder,
                aux_bytes_per_row=measure_aux_bytes_per_row(
                    flat, labels, codec=config.aux_codec,
                    partition_bytes=config.aux_partition_bytes),
                config=search_cfg,
                rng=rng,
                weight_dtype=config.weight_dtype,
            )
            net = outcome.model
            search_history = outcome
        else:
            spec = ArchitectureSpec(
                input_dim=key_encoder.input_dim,
                shared_sizes=tuple(config.shared_sizes),
                private_sizes={t: tuple(config.private_sizes)
                               for t in fdecode.columns},
                output_dims=fdecode.cardinalities(),
            )
            net = MultiTaskMLP(spec, rng=rng)

        warm_tensors = 0
        if warm_start is not None:
            warm_tensors = net.load_state_arrays(warm_start)

        optimizer = Adam(ExponentialDecay(config.learning_rate, config.lr_decay))
        trainer = Trainer(net, optimizer, batch_size=config.batch_size,
                          tol=config.tol, rng=rng)
        training = trainer.fit(x, labels, epochs=config.epochs)

        priced = []  # only the masks: each engine is freed once priced

        def aux_bytes(candidate: InferenceSession) -> float:
            mis = CompiledSession(candidate, key_encoder).lost_rows(
                flat, labels)
            priced.append((candidate, mis))
            return mis.sum() * measure_aux_bytes_per_row(
                flat[mis], {t: labels[t][mis] for t in fdecode.columns},
                codec=config.aux_codec,
                partition_bytes=config.aux_partition_bytes)

        session, _ = choose_width(net, config.weight_dtype, aux_bytes)
        lost = next(mask for candidate, mask in priced
                    if candidate is session)
        model = cls(config, key_codec, key_encoder, session, fdecode,
                    table.uncompressed_bytes())
        model.compiled_session()
        model.search_history = search_history
        model.last_training = training
        model.warm_started_tensors = warm_tensors
        return Fit(model, flat, labels, lost)

    def compiled_session(self) -> CompiledSession:
        """The fused lookup kernel, compiled on first use (concurrent
        first calls may both compile: idempotent, atomic swap)."""
        engine = self._compiled
        if engine is None:
            engine = CompiledSession(self.session, self.key_encoder)
            self._compiled = engine
        return engine

    def encode(self, columns: Dict[str, np.ndarray],
               flat: Optional[np.ndarray] = None):
        """``(flat keys, label codes, lost rows)`` of the rows
        ``columns`` (key and value columns) under this model, no
        training; ``flat`` is their flat keys when the caller already
        has them.  New values join the decode map first (the model never
        predicts them, so their rows are lost)."""
        if flat is None:
            flat = self.key_codec.flatten(columns)
        values = {t: np.asarray(columns[t]) for t in self.fdecode.columns}
        self.fdecode.extend(values)
        labels = self.fdecode.encode(values)
        return flat, labels, self.compiled_session().lost_rows(flat, labels)

    def admits(self, columns: Dict[str, np.ndarray]) -> bool:
        """Whether the key codec takes every key of ``columns`` — the one
        widen-or-retrain rule of an insert.  Keys past the leading key's
        max grow the domain in place (every old code keeps its key, so
        nothing trains); False: only a retrain can widen it."""
        codec = self.key_codec
        return codec.try_flatten(columns)[1].all() or codec.extend_domain(
            columns)

    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """The model's part of a payload (see :mod:`repro.core.persistence`)."""
        return {
            "config": self.config,
            "key_codec": self.key_codec.to_state(),
            "key_encoder": self.key_encoder.to_state(),
            "session_v2": self.session.to_state(),
            "fdecode": self.fdecode.to_state(),
            "dataset_bytes": self.dataset_bytes,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Model":
        """Inverse of :meth:`to_state` (arrays adopted, not copied)."""
        return cls(
            config=state["config"],
            key_codec=CompositeKeyCodec.from_state(state["key_codec"]),
            key_encoder=KeyEncoder.from_state(state["key_encoder"]),
            session=InferenceSession.from_state(state["session_v2"]),
            fdecode=DecodeMap.from_state(state["fdecode"]),
            dataset_bytes=state["dataset_bytes"],
        )

    def __repr__(self) -> str:
        return (f"Model(key={self.key_codec.key_names}, "
                f"values={list(self.fdecode.columns)}, "
                f"bytes={self.session.nbytes})")
