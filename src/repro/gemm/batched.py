"""Batched GEMM on the MXU functional models.

Batched small GEMMs are the execution pattern of the FFT stages (many
radix-matrix multiplies), the EPG recursion and the quantum simulator —
"embarrassingly parallel matrix operations" in the paper's words. The
batch axis maps across dot-product units, so numerics per matrix are
identical to the single-GEMM driver; this module provides the batched
entry points and a strided view helper.

Execution builds one :class:`~repro.gemm.plan.GemmPlan` over the whole
batch (operands split once, not once per K-chunk) and can fan the batch
axis out across worker processes (``workers=N`` or ``REPRO_WORKERS``).
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
from ..parallel import parallel_map, resolve_workers, split_ranges
from ..resilience.abft import guarded_gemm, resolve_abft
from ..types.formats import FP32
from ..types.quantize import quantize, quantize_complex
from .plan import GemmPlan

__all__ = ["batched_mxu_sgemm", "batched_mxu_cgemm", "strided_batch_view"]


def _check_batched(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("batched GEMM expects 3-D operands (batch, rows, cols)")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"batch mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[2] != b.shape[1]:
        raise ValueError(f"K mismatch: A{a.shape} @ B{b.shape}")


def _init_acc(a: np.ndarray, b: np.ndarray, mode: MXUMode) -> np.ndarray:
    shape = (a.shape[0], a.shape[1], b.shape[2])
    if mode is MXUMode.FP32C:
        return np.zeros(shape, dtype=np.complex128)
    return np.zeros(shape)


def _batched_serial(
    a: np.ndarray, b: np.ndarray, mode: MXUMode, unit: M3XU
) -> np.ndarray:
    """Plan-driven batched GEMM over one contiguous batch slice."""
    acc = _init_acc(a, b, mode)
    plan = GemmPlan.build(a, b, mode, unit.config.tile(mode).k)
    for ch in plan.chunks():
        acc = unit.mma_parts(
            ch.a, ch.b, ch.a_parts, ch.b_parts, acc, mode, c_quantized=True
        )
    return acc


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
    timeout: float | None = None,
    retries: int | None = None,
) -> np.ndarray:
    unit = mxu or M3XU()
    _check_batched(a, b)
    n_workers = resolve_workers(workers)
    has_deadline = timeout is not None and timeout > 0
    # Stateful units (e.g. the one-shot fault wrapper) must see the whole
    # batch as one call sequence — fanning out would run a pickled copy of
    # the unit per worker, firing its state machine once per slice against
    # slice-local indices. A deadline always routes through parallel_map
    # (the timeout is enforced by killing hung pool workers), even for a
    # single-slice batch.
    if not has_deadline and (
        n_workers <= 1 or a.shape[0] <= 1 or getattr(unit, "requires_serial", False)
    ):
        out = _batched_serial(a, b, mode, unit)
    else:
        if getattr(unit, "requires_serial", False):
            n_workers = 1
        ranges = split_ranges(a.shape[0], n_workers)
        pieces = parallel_map(
            _batched_worker,
            [(a[lo:hi], b[lo:hi], mode, unit) for lo, hi in ranges],
            workers=n_workers,
            chunk_size=1,
            timeout=timeout,
            retries=retries,
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
    timeout: float | None = None,
    retries: int | None = None,
) -> np.ndarray:
    """FP32 batched GEMM: ``(B, M, K) @ (B, K, N) -> (B, M, N)``.

    ``abft=True`` (or ``REPRO_ABFT=1``) checksum-verifies every matrix of
    the result and transparently recomputes corrupted tiles. ``timeout``
    is a per-slice wall-clock deadline in seconds enforced through
    :func:`repro.parallel.parallel_map` (hung workers are killed, the
    pool respawned); ``retries`` bounds re-attempts — the serving layer's
    per-request deadline propagates through these.
    """
    a = quantize(np.asarray(a, dtype=np.float64), FP32)
    b = quantize(np.asarray(b, dtype=np.float64), FP32)
    return _batched(a, b, MXUMode.FP32, mxu, workers, abft, timeout, retries)


def batched_mxu_cgemm(
    a: np.ndarray,
    b: np.ndarray,
    mxu: M3XU | None = None,
    workers: int | None = None,
    abft: bool | None = None,
    timeout: float | None = None,
    retries: int | None = None,
) -> np.ndarray:
    """FP32C batched GEMM over complex128 operands (``abft=True`` /
    ``REPRO_ABFT=1`` adds per-matrix checksum verification; ``timeout`` /
    ``retries`` propagate a wall-clock deadline into the pool fan-out as
    in :func:`batched_mxu_sgemm`)."""
    a = quantize_complex(np.asarray(a, dtype=np.complex128), FP32)
    b = quantize_complex(np.asarray(b, dtype=np.complex128), FP32)
    return _batched(a, b, MXUMode.FP32C, mxu, workers, abft, timeout, retries)


def strided_batch_view(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reshape a contiguous matrix-panel buffer into a (B, rows, cols)
    batch without copying — the layout batched kernels consume."""
    x = np.ascontiguousarray(x)
    if x.size % (rows * cols):
        raise ValueError(f"buffer of {x.size} elements is not a whole number "
                         f"of {rows}x{cols} matrices")
    return x.reshape(-1, rows, cols)
