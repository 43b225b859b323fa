"""Bit-packed weight storage: k-bit integers plus one scale per channel.

A frozen model's weights dominate the ``size(M)`` term of the paper's
Eq. 1, and DeepMapping makes lossy model compression free of risk:
``T_aux`` is derived from the predictor that answers queries, so a
quantisation error becomes an auxiliary row, never a wrong answer.
This module is the storage half of that trade — how a weight matrix
becomes ``ceil(n * k / 8)`` bytes and back:

- :func:`quantize` maps a float ``(in, out)`` matrix to unsigned k-bit
  levels, symmetric around zero, with one ``float16`` scale per output
  channel (column); :func:`dequantize` is its inverse up to rounding and
  is what every predictor computes with.
- :func:`pack` / :func:`unpack` lay any ``1 <= k <= 8``-bit levels out
  most-significant bit first with no padding between elements
  (``np.packbits`` / ``np.unpackbits``), so the stored array is a flat
  ``uint8`` buffer a zero-copy open can view where it lies.
- :func:`packed_nbytes` is the one size expression both use.

Which ``k`` a model is stored at is not decided here — see
:func:`repro.nn.inference.choose_width`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["pack", "unpack", "packed_nbytes", "quantize", "dequantize"]


def _check_bits(bits: int, low: int = 1) -> int:
    if not low <= int(bits) <= 8:
        raise ValueError(f"bit width must be in [{low}, 8], got {bits}")
    return int(bits)


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes :func:`pack` needs for ``count`` elements of ``bits`` bits."""
    return (int(count) * _check_bits(bits) + 7) // 8


def pack(levels: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned integers below ``2**bits`` into a flat uint8 array.

    Element ``i`` occupies bits ``[i * bits, (i + 1) * bits)`` of the
    output, most-significant first; the last byte is zero-padded.
    """
    bits = _check_bits(bits)
    levels = np.ascontiguousarray(levels, dtype=np.uint8).reshape(-1)
    if levels.size and int(levels.max()) >> bits:
        raise ValueError(f"a level does not fit in {bits} bits")
    planes = np.unpackbits(levels[:, None], axis=1)[:, 8 - bits:]
    return np.packbits(planes.reshape(-1))


def unpack(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack`: the first ``count`` elements, as uint8."""
    bits = _check_bits(bits)
    packed = np.asarray(packed, dtype=np.uint8).reshape(-1)
    if packed.size != packed_nbytes(count, bits):
        raise ValueError(
            f"{count} elements of {bits} bits take "
            f"{packed_nbytes(count, bits)} bytes, got {packed.size}")
    planes = np.unpackbits(packed, count=count * bits).reshape(count, bits)
    # sum(plane * 2**position) per element, as one float32 matrix-vector
    # product: exact below 2**24, and BLAS runs it several times faster
    # than NumPy's integer matmul (this sits on every store open).
    place = (1 << np.arange(bits - 1, -1, -1)).astype(np.float32)
    return (planes.astype(np.float32) @ place).astype(np.uint8)


def quantize(weight: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel quantisation of an ``(in, out)`` matrix.

    Returns ``(levels, scale)``: ``levels`` is uint8 of the weight's shape
    holding ``q + qmax`` for ``q = round(w / scale)`` clipped to
    ``[-qmax, qmax]``, ``qmax = 2**(bits-1) - 1``; ``scale`` is the
    float16 step per column.  The rounding uses the scale *as stored*,
    so :func:`dequantize` reproduces exactly what was chosen here.
    """
    qmax = (1 << (_check_bits(bits, low=2) - 1)) - 1
    weight = np.asarray(weight, dtype=np.float32)
    peak = np.abs(weight).max(axis=0) if weight.shape[0] else \
        np.zeros(weight.shape[1], dtype=np.float32)
    with np.errstate(over="ignore"):
        scale = (peak / qmax).astype(np.float16)
    # An all-zero (or denormal-small) column would divide by zero; a
    # column too large for float16 keeps the largest finite step.
    scale = np.where(scale > 0, scale, np.float16(1.0))
    scale = np.minimum(scale, np.finfo(np.float16).max).astype(np.float16)
    q = np.rint(weight / scale.astype(np.float32))
    levels = (np.clip(q, -qmax, qmax) + qmax).astype(np.uint8)
    return levels, scale


def dequantize(levels: np.ndarray, scale: np.ndarray, bits: int) -> np.ndarray:
    """The float32 matrix :func:`quantize`'s output stands for."""
    qmax = (1 << (_check_bits(bits, low=2) - 1)) - 1
    centred = levels.astype(np.float32) - np.float32(qmax)
    return centred * np.asarray(scale, dtype=np.float32)
