"""Batched GEMM on the MXU functional models.

Batched small GEMMs are the execution pattern of the FFT stages (many
radix-matrix multiplies), the EPG recursion and the quantum simulator —
"embarrassingly parallel matrix operations" in the paper's words. The
batch axis maps across dot-product units, so numerics per matrix are
identical to the single-GEMM driver; this module provides the batched
entry points and a strided view helper.

Execution runs the whole stack's K-chain in one ``chain`` call of the
unit (one fused kernel call on M3XU), and can fan the batch axis out
across worker processes (``workers=N`` or ``REPRO_WORKERS``) by
:func:`~repro.gemm.tiled.fan_out_ranges`, with no work floor.
Each matrix's reduction is anchored independently, so results are
bit-identical for every worker count and to a per-matrix, per-K-chunk
loop of MMAs.

The fan-out rides the persistent worker pool of :mod:`repro.parallel`
(no spawn cost per batch), and operand slices above the shared-memory
threshold travel zero-copy instead of through pickle.
"""

from __future__ import annotations

import numpy as np

from ..mxu.m3xu import M3XU
from ..mxu.modes import MXUMode
from ..parallel import parallel_map
from ..resilience.abft import guarded_gemm, resolve_abft
from ..types.formats import FP32
from ..types.quantize import quantize, quantize_complex
from .tiled import fan_out_ranges

__all__ = ["batched_mxu_sgemm", "batched_mxu_cgemm", "strided_batch_view"]


def _check_batched(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("batched GEMM expects 3-D operands (batch, rows, cols)")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"batch mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[2] != b.shape[1]:
        raise ValueError(f"K mismatch: A{a.shape} @ B{b.shape}")


def _batched_serial(
    a: np.ndarray, b: np.ndarray, mode: MXUMode, unit: M3XU
) -> np.ndarray:
    """Batched GEMM over one contiguous batch slice of register operands:
    the whole stack's K-chain in one ``chain`` call, C = 0."""
    return unit.chain(a, b, 0.0, mode, unit.config.tile(mode).k, c_quantized=True)


def _batched_worker(
    args: tuple[np.ndarray, np.ndarray, MXUMode, M3XU],
) -> np.ndarray:
    a, b, mode, unit = args
    return _batched_serial(a, b, mode, unit)


def _batched(
    a: np.ndarray,
    b: np.ndarray,
    mode: MXUMode,
    mxu: M3XU | None,
    workers: int | None = None,
    abft: bool | None = None,
) -> np.ndarray:
    unit = mxu or M3XU()
    _check_batched(a, b)
    # Stateful units (e.g. the one-shot fault wrapper) must see the whole
    # batch as one call sequence; fan_out_ranges keeps them in process.
    ranges = fan_out_ranges(unit, a.shape[0], workers)
    if not ranges:
        out = _batched_serial(a, b, mode, unit)
    else:
        pieces = parallel_map(
            _batched_worker,
            [(a[lo:hi], b[lo:hi], mode, unit) for lo, hi in ranges],
            workers=len(ranges),
            chunk_size=1,
        )
        out = np.concatenate(pieces, axis=0)
    if resolve_abft(abft):
        out = _verify_batch(out, a, b, mode, unit)
    return out


def _verify_batch(
    out: np.ndarray, a: np.ndarray, b: np.ndarray, mode: MXUMode, unit: M3XU
) -> np.ndarray:
    """ABFT-check every matrix of an already computed batch result.

    The parallel engine produced *out*; the guard only verifies checksums
    against the quantised operands and recomputes flagged tiles (through
    the serial per-matrix path, bit-identical element-wise), so the
    fan-out's throughput is preserved on the fault-free path.
    """
    for i in range(a.shape[0]):

        def compute(aa: np.ndarray, bb: np.ndarray, cc: np.ndarray) -> np.ndarray:
            # Batched entry points carry no C operand (cc is exact zero).
            return _batched_serial(aa[None, ...], bb[None, ...], mode, unit)[0]

        zero = np.zeros((a.shape[1], b.shape[2]), dtype=out.dtype)
        verified, _report = guarded_gemm(
            compute, a[i], b[i], zero, roundoff=2.0**-23, out=out[i]
        )
        if verified is not out[i]:
            out[i] = verified
    return out


def batched_mxu_sgemm(
    a: np.ndarray,
    b: np.ndarray,
    mxu: M3XU | None = None,
    workers: int | None = None,
    abft: bool | None = None,
) -> np.ndarray:
    """FP32 batched GEMM: ``(B, M, K) @ (B, K, N) -> (B, M, N)``.

    ``abft=True`` (or ``REPRO_ABFT=1``) checksum-verifies every matrix of
    the result and transparently recomputes corrupted tiles.
    """
    a = quantize(np.asarray(a, dtype=np.float64), FP32)
    b = quantize(np.asarray(b, dtype=np.float64), FP32)
    return _batched(a, b, MXUMode.FP32, mxu, workers, abft)


def batched_mxu_cgemm(
    a: np.ndarray,
    b: np.ndarray,
    mxu: M3XU | None = None,
    workers: int | None = None,
    abft: bool | None = None,
) -> np.ndarray:
    """FP32C batched GEMM over complex128 operands (``abft=True`` /
    ``REPRO_ABFT=1`` adds per-matrix checksum verification)."""
    a = quantize_complex(np.asarray(a, dtype=np.complex128), FP32)
    b = quantize_complex(np.asarray(b, dtype=np.complex128), FP32)
    return _batched(a, b, MXUMode.FP32C, mxu, workers, abft)


def strided_batch_view(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reshape a contiguous matrix-panel buffer into a (B, rows, cols)
    batch without copying — the layout batched kernels consume."""
    x = np.ascontiguousarray(x)
    if x.size % (rows * cols):
        raise ValueError(f"buffer of {x.size} elements is not a whole number "
                         f"of {rows}x{cols} matrices")
    return x.reshape(-1, rows, cols)
