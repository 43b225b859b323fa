"""Configuration for building DeepMapping structures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["DeepMappingConfig"]


@dataclass
class DeepMappingConfig:
    """Build/training/storage knobs for :class:`~repro.core.DeepMapping`.

    Defaults are scaled-down versions of the paper's settings (Sec. V-A6)
    so that structures build in seconds on a laptop; the benchmark configs
    state any deviations per experiment.
    """

    # -- key encoding -------------------------------------------------
    #: Digit base(s) of the one-hot key encoding.  A tuple of (ideally
    #: co-prime) bases concatenates one expansion per base, handing the
    #: model the key's residues modulo each base power — which makes
    #: cross-product tables learnable by small models (see
    #: :class:`~repro.data.encoding.KeyEncoder`).
    key_base: "int | tuple" = 10
    #: Extra headroom (fraction of the observed extent) reserved on the
    #: slowest-varying key column so future insertions stay in-domain.
    key_headroom_fraction: float = 0.0

    # -- architecture (used when ``use_search`` is False) --------------
    #: Hidden widths of the shared trunk.
    shared_sizes: Tuple[int, ...] = (64,)
    #: Hidden widths of each task's private chain.
    private_sizes: Tuple[int, ...] = (32,)
    #: Run MHAS instead of the fixed sizes above.
    use_search: bool = False
    #: Optional :class:`~repro.core.mhas.MHASConfig`; defaults applied when
    #: ``use_search`` and this is None.
    search: Optional[object] = None

    # -- training -------------------------------------------------------
    #: Maximum training epochs (paper trains until the loss delta < tol).
    epochs: int = 120
    #: Mini-batch size (paper: 16384; scaled down with the datasets so the
    #: step count per epoch stays comparable).
    batch_size: int = 1024
    #: Adam learning rate (paper: 0.001; slightly higher converges faster
    #: at this scale).
    learning_rate: float = 0.003
    #: Per-step exponential decay of the learning rate (paper: 0.999).
    lr_decay: float = 0.999
    #: Early-stopping tolerance on the epoch-loss delta (paper: 1e-4,
    #: tightened because scaled losses are smaller).
    tol: float = 1e-5
    #: Widest storage of the frozen model weights — an upper bound, not
    #: necessarily what is stored: the freeze keeps whichever of this
    #: dtype unpacked and the bit-packed widths 8..3 minimises Eq. 1
    #: (:func:`repro.nn.inference.choose_width`).
    weight_dtype: str = "float16"

    # -- auxiliary structure -------------------------------------------
    #: Codec for auxiliary-table partitions ("zstd" -> DM-Z, "lzma" -> DM-L).
    aux_codec: str = "zstd"
    #: Target uncompressed partition size (paper tunes 128KB..8MB).
    aux_partition_bytes: int = 64 * 1024
    #: Fold the modification overlay into compressed partitions once it
    #: holds this many rows.
    aux_auto_compact_rows: int = 4096

    # -- modifications ---------------------------------------------------
    #: Retrain once this many bytes have been inserted/deleted/updated
    #: since the last build (paper's DM-Z1 uses 200MB); None disables.
    retrain_threshold_bytes: Optional[int] = None
    #: Retrain once ``len(T_aux) / n_rows`` exceeds this fraction — the
    #: auxiliary table absorbing modifications is the structure's storage
    #: regression, so bounding its share bounds the compression loss
    #: between retrains.  None disables the check.  Structures under
    #: ``modify.MIN_ROWS_FOR_RATIO_RETRAIN`` rows never fire it (tiny
    #: tables whose residuals dominate ``T_aux`` would thrash).
    retrain_aux_ratio: Optional[float] = None
    #: Initialize retrains from the previous model's weights — the paper's
    #: model-reuse direction (Sec. V-D); big speedup on the retrain path.
    warm_start_rebuild: bool = True

    # -- misc -------------------------------------------------------------
    #: Seed for weight init and shuffling.
    seed: int = 0
    #: Batch size for model inference at query time.
    inference_batch: int = 65536

    def __post_init__(self):
        bases = ((self.key_base,) if isinstance(self.key_base, int)
                 else tuple(self.key_base))
        if not bases or any(b < 2 for b in bases):
            raise ValueError("every key base must be >= 2")
        if self.key_headroom_fraction < 0:
            raise ValueError("key_headroom_fraction must be non-negative")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.aux_partition_bytes <= 0:
            raise ValueError("aux_partition_bytes must be positive")
        if self.aux_auto_compact_rows <= 0:
            raise ValueError("aux_auto_compact_rows must be positive")
        if self.retrain_threshold_bytes is not None and self.retrain_threshold_bytes <= 0:
            raise ValueError("retrain_threshold_bytes must be positive or None")
        if self.retrain_aux_ratio is not None and not 0 < self.retrain_aux_ratio <= 1:
            raise ValueError("retrain_aux_ratio must be in (0, 1] or None")

