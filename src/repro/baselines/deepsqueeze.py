"""DeepSqueeze baseline (paper Sec. V-A3; Ilkhechi et al., SIGMOD 2020).

Semantic *lossy* compression: an autoencoder learns the joint column
distribution; rows are stored as quantized bottleneck codes plus an outlier
table for cells whose reconstruction misses the error bound ε.  The paper
configures ε = 0.001 and reports DeepSqueeze's two failure modes on these
workloads, both reproduced here:

- categorical columns quantize poorly, so the outlier table bloats and the
  compression ratio lags the syntactic compressors;
- answering point lookups requires running the decoder over the *whole*
  table (semantic compressors have no random access), so constrained
  memory pools OOM — surface a
  :class:`~repro.storage.buffer_pool.MemoryBudgetError` exactly where the
  paper prints "failed".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.encoding import ValueEncoder
from ..nn.layers import Dense
from ..nn.losses import mse
from ..nn.optimizers import Adam
from ..storage.buffer_pool import BufferPool, new_pool_key
from ..storage.serializer import serialize_block
from ..storage.stats import StoreStats
from .base import BaselineStore

__all__ = ["DeepSqueeze"]


class DeepSqueeze(BaselineStore):
    """Autoencoder-based semantic compressor with an error bound.

    Parameters
    ----------
    epsilon:
        Error bound on normalized values (paper: 0.001).
    bottleneck / hidden:
        Autoencoder shape.
    epochs / batch_size / lr:
        Training settings (DeepSqueeze trains far shorter than DeepMapping;
        the paper reports ~11 min vs hours).
    """

    name = "DS"

    def __init__(
        self,
        epsilon: float = 0.001,
        bottleneck: int = 2,
        hidden: int = 16,
        epochs: int = 30,
        batch_size: int = 1024,
        lr: float = 0.003,
        seed: int = 0,
        pool: Optional[BufferPool] = None,
        stats: Optional[StoreStats] = None,
    ):
        super().__init__(pool=pool, stats=stats)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self.bottleneck = bottleneck
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self._encoders: Dict[str, ValueEncoder] = {}
        self._keys: Optional[np.ndarray] = None
        self._latent_q: Optional[np.ndarray] = None
        self._latent_lo: Optional[np.ndarray] = None
        self._latent_hi: Optional[np.ndarray] = None
        self._outliers: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._decoder: List[Dense] = []
        self._cards: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _build_impl(self, flat_keys: np.ndarray,
                    values: Dict[str, np.ndarray]) -> None:
        rng = np.random.default_rng(self.seed)
        self._pool_key = new_pool_key()
        order = np.argsort(flat_keys, kind="stable")
        self._keys = flat_keys[order]
        names = self._value_names

        # Label-encode and normalize each column to [0, 1].
        codes = {}
        for name in names:
            enc = ValueEncoder(name).fit(values[name])
            self._encoders[name] = enc
            self._cards[name] = enc.cardinality
            codes[name] = enc.encode(np.asarray(values[name])[order])
        matrix = np.stack(
            [codes[n] / max(self._cards[n] - 1, 1) for n in names], axis=1
        ).astype(np.float32)

        # Train the autoencoder.
        m = matrix.shape[1]
        enc1 = Dense(m, self.hidden, rng=rng, activation="relu")
        enc2 = Dense(self.hidden, self.bottleneck, rng=rng, activation="linear")
        dec1 = Dense(self.bottleneck, self.hidden, rng=rng, activation="relu")
        dec2 = Dense(self.hidden, m, rng=rng, activation="linear")
        layers = [enc1, enc2, dec1, dec2]
        params = [p for layer in layers for p in layer.parameters()]
        optimizer = Adam(self.lr)
        n = matrix.shape[0]
        for _ in range(self.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = matrix[perm[start: start + self.batch_size]]
                h = batch
                for layer in layers:
                    h = layer.forward(h, train=True)
                _, grad = mse(h, batch)
                for layer in reversed(layers):
                    grad = layer.backward(grad.astype(np.float32))
                optimizer.step(params)

        # Quantize bottleneck codes to uint8 bins.
        latent = enc2.forward(enc1.forward(matrix, train=False), train=False)
        self._latent_lo = latent.min(axis=0)
        self._latent_hi = np.maximum(latent.max(axis=0),
                                     self._latent_lo + 1e-6)
        span = self._latent_hi - self._latent_lo
        self._latent_q = np.clip(
            np.round((latent - self._latent_lo) / span * 255), 0, 255
        ).astype(np.uint8)
        self._decoder = [dec1, dec2]

        # Outliers: cells whose reconstruction misses the error bound.
        recon = self._reconstruct_normalized()
        for j, name in enumerate(names):
            err = np.abs(recon[:, j] - matrix[:, j])
            bad = np.flatnonzero(err > self.epsilon)
            self._outliers[name] = (bad.astype(np.int64),
                                    codes[name][bad].astype(np.int64))

    def _reconstruct_normalized(self) -> np.ndarray:
        span = self._latent_hi - self._latent_lo
        latent = self._latent_q.astype(np.float32) / 255.0 * span + self._latent_lo
        h = latent
        for layer in self._decoder:
            h = layer.forward(h, train=False)
        return h

    def _materialize_codes(self) -> Dict[str, np.ndarray]:
        """Decode the whole table (the expensive decompression step)."""

        def loader():
            with self.stats.timing("decompress"):
                recon = self._reconstruct_normalized()
                out: Dict[str, np.ndarray] = {}
                for j, name in enumerate(self._value_names):
                    card = self._cards[name]
                    code = np.clip(
                        np.round(recon[:, j] * max(card - 1, 1)), 0, card - 1
                    ).astype(np.int64)
                    rows, exact = self._outliers[name]
                    code[rows] = exact
                    out[name] = code
            size = sum(arr.nbytes for arr in out.values()) + recon.nbytes
            return out, size

        return self.pool.get(self._pool_key, loader)

    # ------------------------------------------------------------------
    def _lookup_impl(
        self, flat_keys: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        codes = self._materialize_codes()
        with self.stats.timing("search"):
            pos = np.searchsorted(self._keys, flat_keys)
            pos = np.minimum(pos, self._keys.size - 1)
            found = self._keys[pos] == flat_keys
        values = {}
        with self.stats.timing("decode"):
            for name in self._value_names:
                card = self._cards[name]
                safe = np.clip(codes[name][pos], 0, card - 1)
                values[name] = self._encoders[name].decode(safe)
        return found, values

    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Decoder weights + quantized codes + outliers + vocabularies."""
        self._require_built()
        decoder_state = [
            (layer.weight.value, layer.bias.value) for layer in self._decoder
        ]
        blob = {
            "decoder": decoder_state,
            "latent_q": self._latent_q,
            "lo": self._latent_lo,
            "hi": self._latent_hi,
            "keys": self._keys,
            "outliers": self._outliers,
            "vocabs": {n: e.vocab for n, e in self._encoders.items()},
        }
        import zlib

        return len(zlib.compress(serialize_block(blob), 1))

    def outlier_fraction(self) -> float:
        """Fraction of cells stored exactly (diagnostics: the paper's
        'cannot compress categorical data effectively' mechanism)."""
        self._require_built()
        total = self._keys.size * max(len(self._value_names), 1)
        bad = sum(rows.size for rows, _ in self._outliers.values())
        return bad / total if total else 0.0
