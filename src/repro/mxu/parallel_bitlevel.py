"""Sharded bit-level GEMM: the vector engine composed with the pool.

A bit-level GEMM is a chain of MMA tiles along K with an FP32 rounding
point between chunks (:mod:`repro.gemm.tiled`). Because every
output column's K-chain is independent of every other column's — the
slot-order accumulation discipline never mixes columns — the GEMM can be
sharded into column blocks and each block's *entire* K-chain evaluated
independently, in any order, on any worker, and the concatenated result
is bit-identical to the serial driver. This module does exactly that:

* :func:`sharded_bitlevel_gemm` splits the N dimension into blocks of
  :data:`DEFAULT_BITLEVEL_CHUNK` columns and dispatches the blocks
  through :func:`repro.parallel.parallel_map`, so large operands ride
  the shared-memory transport and the persistent fork-safe pool provides
  the workers;
* worker count follows ``REPRO_WORKERS`` (or the explicit argument);
  ``workers<=1`` — and any call made from *inside* a pool worker — runs
  the same block loop serially in-process, so nested calls can never
  deadlock the pool;
* every worker count produces the same bits: blocks are column-disjoint,
  results are reassembled in submission order, and each block's chain is
  one :meth:`BitLevelMXU.chain <repro.mxu.vectorized.BitLevelMXU.chain>`
  call.

**Operand transport.** The A operand is shared by every column block:
the parent quantises dense A once, and every block's task carries that
same array, so :func:`~repro.parallel.parallel_map` ships it once per
call — through one shared-memory segment when it is large, pickled
otherwise.

The column block size is a pure performance knob; it is *not* a rounding
boundary (those remain the K-chunk seams of the tiled driver).
"""

from __future__ import annotations

import numpy as np

from ..parallel import parallel_map, resolve_workers
from ..types.formats import FP32
from ..types.quantize import quantize, quantize_complex
from ..types.rounding import RoundingMode
from .config import M3XU_CONFIG
from .modes import MXUMode
from .vectorized import BitLevelMXU, resolve_bitlevel_engine

__all__ = [
    "DEFAULT_BITLEVEL_CHUNK",
    "sharded_bitlevel_gemm",
]

#: Output-column block size of a parallel run. Each block is one
#: ``BitLevelMXU.chain`` call; 64 columns leave enough blocks per GEMM to
#: feed several workers.
DEFAULT_BITLEVEL_CHUNK = 64


def _chain_columns(payload: tuple) -> np.ndarray:
    """Run one column block's full K-chain through a bit-level engine.

    Module-level (pickleable) task function for :func:`parallel_map`. The
    payload is a flat tuple so the shared-memory transport can walk it
    and route each operand array individually.
    """
    a, b_cols, c_cols, mode_value, engine, acc_bits, rounding_value, k_chunk = payload
    unit = BitLevelMXU(engine, acc_bits=acc_bits, rounding=RoundingMode(rounding_value))
    return unit.chain(a, b_cols, c_cols, MXUMode(mode_value), k_chunk, c_quantized=True)


def sharded_bitlevel_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float | complex = 0.0,
    mode: MXUMode = MXUMode.FP32,
    *,
    engine: str | None = None,
    acc_bits: int | None = None,
    rounding: RoundingMode | None = None,
    k_chunk: int | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """``A @ B + C`` through the bit-level datapath, sharded over columns.

    Semantically identical — bit for bit, at every worker count — to
    chaining :meth:`BitLevelMXU.mma
    <repro.mxu.vectorized.BitLevelMXU.mma>` K-chunk by K-chunk over the
    whole matrices, because output columns never interact inside the
    accumulation discipline.

    Parameters
    ----------
    a, b, c:
        GEMM operands; quantised to FP32 registers on the way in exactly
        as the tiled driver does (idempotent for pre-quantised inputs).
    mode:
        :data:`~repro.mxu.modes.MXUMode.FP32` or ``FP32C``.
    engine:
        Bit-level engine name (defaults to ``REPRO_BITLEVEL``).
    acc_bits, rounding:
        Accumulator width / rounding discipline (M3XU defaults).
    k_chunk:
        K elements per MMA instruction (defaults to the M3XU tile K for
        the mode) — the FP32 rounding seam, so it *does* change bits.
    workers:
        Worker count (defaults to ``REPRO_WORKERS``); ``<=1`` runs the
        block loop serially in-process, otherwise the output columns are
        dispatched in blocks of :data:`DEFAULT_BITLEVEL_CHUNK`.
    """
    if mode not in (MXUMode.FP32, MXUMode.FP32C):
        raise ValueError(f"bit-level engines model fp32/fp32c only, not {mode.value}")
    engine_name = resolve_bitlevel_engine(engine)
    width = acc_bits if acc_bits is not None else M3XU_CONFIG.acc_bits
    acc_width = int(width if width is not None else 48)
    rmode = rounding if rounding is not None else M3XU_CONFIG.acc_rounding
    step = int(k_chunk) if k_chunk is not None else M3XU_CONFIG.tile(mode).k
    if step < 1:
        raise ValueError("k_chunk must be >= 1")

    if mode is MXUMode.FP32C:
        aq = quantize_complex(np.asarray(a, dtype=np.complex128), FP32)
        bq = quantize_complex(np.asarray(b, dtype=np.complex128), FP32)
        cq = quantize_complex(np.asarray(c, dtype=np.complex128), FP32)
    else:
        aq = quantize(np.asarray(a, dtype=np.float64), FP32)
        bq = quantize(np.asarray(b, dtype=np.float64), FP32)
        cq = quantize(np.asarray(c, dtype=np.float64), FP32)
    if aq.ndim != 2 or bq.ndim != 2:
        raise ValueError(f"operands must be 2-D, got A{aq.shape} B{bq.shape}")
    if bq.shape[0] != aq.shape[1]:
        raise ValueError(f"K mismatch: A{aq.shape} @ B{bq.shape}")

    n = bq.shape[1]
    acc0 = np.broadcast_to(cq, (aq.shape[0], n))
    if n == 0:
        return acc0.copy()

    # Column blocks are the *parallel* grain; a serial run hands the whole
    # width to one chain (bit-identical either way — columns never
    # interact).
    blk = n if resolve_workers(workers) <= 1 else DEFAULT_BITLEVEL_CHUNK
    tasks = [
        (
            aq,
            np.ascontiguousarray(bq[:, j0 : j0 + blk]),
            np.ascontiguousarray(acc0[:, j0 : j0 + blk]),
            mode.value,
            engine_name,
            acc_width,
            rmode.value,
            step,
        )
        for j0 in range(0, n, blk)
    ]
    results = parallel_map(_chain_columns, tasks, workers=workers)
    if len(results) == 1:
        return results[0]
    return np.concatenate(results, axis=1)
