"""Sharded bit-level GEMM: the vector engine composed with the pool.

A bit-level GEMM is a chain of MMA tiles along K with an FP32 rounding
point between chunks (:mod:`repro.gemm.tiled`). Because every
output column's K-chain is independent of every other column's — the
slot-order accumulation discipline never mixes columns — the GEMM can be
sharded into column blocks and each block's *entire* K-chain evaluated
independently, in any order, on any worker, and the concatenated result
is bit-identical to the serial driver. This module does exactly that:

* :func:`sharded_bitlevel_gemm` splits the N dimension into blocks of
  :data:`DEFAULT_BITLEVEL_CHUNK` columns (64 — also the cache-blocking
  sweet spot for the vector engine's slot buffers) and dispatches the
  blocks through :func:`repro.parallel.parallel_map`, so large operands
  ride the shared-memory transport and the persistent fork-safe pool
  provides the workers;
* worker count follows ``REPRO_WORKERS`` (or the explicit argument);
  ``workers<=1`` — and any call made from *inside* a pool worker — runs
  the same block loop serially in-process, so nested calls can never
  deadlock the pool;
* every worker count produces the same bits: blocks are column-disjoint,
  results are reassembled in submission order, and each block's chain is
  the engine's own whole-chain kernel
  (:func:`~repro.mxu.vectorized.chained_vector_fp32` /
  :func:`~repro.mxu.vectorized.chained_vector_fp32c`) or, on the scalar
  engine, its per-MMA loop.

**Operand split cache + arena.** The A operand is shared by every column
block, so with the split cache enabled (``REPRO_SPLIT_CACHE``, default
on) the FP32 vector path derives A's multiplier-lane fields
(:func:`~repro.mxu.vectorized.fp32_lane_fields`) once per *content
digest* instead of once per call, and FP32C/scalar paths cache the
quantised dense operand. Parallel dispatch publishes the cached planes
into the :mod:`repro.parallel` operand arena so task payloads carry an
:class:`~repro.parallel.ArenaHandle` — a digest, not arrays — and a
repeated-A workload skips both the split and the per-task transport.
Workers attach lazily and keep their own digest → segment LRU. Every
shortcut is bit-identical: a cache hit returns exactly the planes a
fresh split of the same bytes produces, and nested in-worker calls take
the plain serial path untouched.

The column block size is a pure performance knob; it is *not* a rounding
boundary (those remain the K-chunk seams of the tiled driver).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..parallel import (
    ArenaHandle,
    arena_fetch,
    arena_pin,
    arena_publish,
    arena_unpin,
    in_worker,
    parallel_map,
    resolve_workers,
)
from ..types.formats import FP32
from ..types.quantize import quantize, quantize_complex
from ..types.rounding import RoundingMode
from .config import M3XU_CONFIG
from .modes import MXUMode
from .split_cache import (
    DEFAULT_SPLIT_CACHE,
    SPLIT_CACHE_MIN_BYTES,
    operand_digest,
    resolve_split_cache,
)
from .vectorized import (
    _SCALAR_MMA,
    chained_vector_fp32,
    chained_vector_fp32c,
    fp32_lane_fields,
    resolve_bitlevel_engine,
)

__all__ = [
    "DEFAULT_BITLEVEL_CHUNK",
    "sharded_bitlevel_gemm",
]

#: Output-column block size of a parallel run. 64 columns keeps the vector
#: engine's slot buffers (m x 64 x slots, float32 + int16) inside L2 while
#: leaving enough blocks per GEMM to feed several workers.
DEFAULT_BITLEVEL_CHUNK = 64


def _resolve_a_entry(a_entry: Any) -> tuple[np.ndarray | None, tuple | None]:
    """Unpack a task payload's A operand: ``(dense, lane fields)``.

    The payload carries one of a dense ndarray (the legacy form), a
    ``("fields", hi, lo, exp)`` tuple (pre-split, in-process), or an
    :class:`~repro.parallel.ArenaHandle` naming published planes
    (pre-split or dense, fetched from the worker's segment LRU).
    """
    if isinstance(a_entry, ArenaHandle):
        planes = arena_fetch(a_entry)
        if "dense" in planes:
            return planes["dense"], None
        return None, (planes["hi"], planes["lo"], planes["exp"])
    if isinstance(a_entry, tuple) and a_entry and a_entry[0] == "fields":
        return None, a_entry[1:]
    return a_entry, None


def _chain_columns(payload: tuple) -> np.ndarray:
    """Run one column block's full K-chain through a bit-level engine.

    Module-level (pickleable) task function for :func:`parallel_map`. The
    payload is a flat tuple so the shared-memory transport can walk it
    and route each operand array individually; the A slot additionally
    admits the pre-split forms of :func:`_resolve_a_entry`.
    """
    a_entry, b_cols, c_cols, mode_value, engine, acc_bits, rounding_value, k_chunk = (
        payload
    )
    mode = MXUMode(mode_value)
    rounding = RoundingMode(rounding_value)
    a, a_fields = _resolve_a_entry(a_entry)
    if engine == "vector" and mode is MXUMode.FP32:
        return chained_vector_fp32(
            a,
            b_cols,
            c_cols,
            k_chunk=k_chunk,
            acc_bits=acc_bits,
            rounding=rounding,
            a_fields=a_fields,
        )
    if a is None:  # pragma: no cover - dispatcher never pairs these
        raise ValueError(f"engine {engine!r}/{mode.value} needs a dense A operand")
    if engine == "vector":
        return chained_vector_fp32c(
            a, b_cols, c_cols, k_chunk=k_chunk, acc_bits=acc_bits, rounding=rounding
        )
    # The scalar oracle runs the per-MMA chain it defines.
    fn = _SCALAR_MMA[mode]
    acc = c_cols
    for k0 in range(0, a.shape[1], k_chunk):
        acc = fn(
            a[:, k0 : k0 + k_chunk],
            b_cols[k0 : k0 + k_chunk, :],
            acc,
            acc_bits=acc_bits,
            rounding=rounding,
        )
    # First chunk may hand back the (possibly read-only, shm-backed) C
    # block untouched when K == 0; return an owned copy in that case.
    if acc is c_cols:
        return np.array(acc, copy=True)
    return acc


def _cached_a_operand(
    a64: np.ndarray, mode: MXUMode, engine: str
) -> tuple[np.ndarray | None, tuple | None, str | None]:
    """Resolve the A operand through the split cache.

    Returns ``(dense, lane fields, digest key)``. The FP32 vector path
    caches the multiplier-lane fields (``dense`` stays ``None`` — the
    whole-chain kernel never touches dense A); every other engine/mode
    caches the quantised dense operand. A cache hit skips quantisation
    and splitting entirely; both artefacts are keyed by the *raw*
    operand's bytes, so pre- and post-quantised callers share entries.
    """
    fields_path = engine == "vector" and mode is MXUMode.FP32
    key = operand_digest(
        a64, mode.value, "fp32-fields" if fields_path else "bitlevel-dense"
    )
    hit = DEFAULT_SPLIT_CACHE.get(key)
    if hit is not None:
        if fields_path:
            return None, hit, key
        return hit, None, key
    if mode is MXUMode.FP32C:
        aq = quantize_complex(a64, FP32)
    else:
        aq = quantize(a64, FP32)
    if fields_path:
        fields = DEFAULT_SPLIT_CACHE.put(key, fp32_lane_fields(aq))
        return None, fields, key
    return DEFAULT_SPLIT_CACHE.put(key, aq), None, key


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
    chunk: int | None = None,
) -> np.ndarray:
    """``A @ B + C`` through the bit-level datapath, sharded over columns.

    Semantically identical — bit for bit, at every worker count, cached
    or cold — to chaining :meth:`BitLevelMXU.mma
    <repro.mxu.vectorized.BitLevelMXU.mma>` K-chunk by K-chunk over the
    whole matrices, because output columns never interact inside the
    accumulation discipline.

    Parameters
    ----------
    a, b, c:
        GEMM operands; quantised to FP32 registers on the way in exactly
        as the tiled driver does (idempotent for pre-quantised inputs).
        A repeated A operand hits the split cache (and, in parallel
        runs, the shared-memory arena) instead of being re-split and
        re-shipped — see the module docstring.
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
        block loop serially in-process.
    chunk:
        Output-column block size of a parallel run (defaults to
        :data:`DEFAULT_BITLEVEL_CHUNK`) — a pure performance knob, never
        a rounding boundary.
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
    if chunk is not None and chunk < 1:
        raise ValueError("bit-level column chunk must be >= 1")

    if mode is MXUMode.FP32C:
        a64 = np.asarray(a, dtype=np.complex128)
        bq = quantize_complex(np.asarray(b, dtype=np.complex128), FP32)
        cq = quantize_complex(np.asarray(c, dtype=np.complex128), FP32)
    else:
        a64 = np.asarray(a, dtype=np.float64)
        bq = quantize(np.asarray(b, dtype=np.float64), FP32)
        cq = quantize(np.asarray(c, dtype=np.float64), FP32)
    if a64.ndim != 2 or bq.ndim != 2:
        raise ValueError(f"operands must be 2-D, got A{a64.shape} B{bq.shape}")
    if bq.shape[0] != a64.shape[1]:
        raise ValueError(f"K mismatch: A{a64.shape} @ B{bq.shape}")

    # Nested in-worker calls run the plain serial path without touching
    # the cache or the arena (the worker's pool-lifetime state stays
    # bounded by its own attach LRU, not by per-call splits).
    use_cache = (
        resolve_split_cache()
        and not in_worker()
        and a64.nbytes >= SPLIT_CACHE_MIN_BYTES
    )
    aq: np.ndarray | None = None
    a_fields: tuple | None = None
    a_key: str | None = None
    if use_cache:
        aq, a_fields, a_key = _cached_a_operand(a64, mode, engine_name)
    else:
        if mode is MXUMode.FP32C:
            aq = quantize_complex(a64, FP32)
        else:
            aq = quantize(a64, FP32)

    n = bq.shape[1]
    acc0 = np.broadcast_to(cq, (a64.shape[0], n))
    if n == 0:
        return acc0.copy()

    # Column blocks are the *parallel* grain; a serial run hands the whole
    # width to one chain so the kernel's internal cache blocking sets the
    # pace (bit-identical either way — columns never interact).
    blk = n if resolve_workers(workers) <= 1 else int(chunk or DEFAULT_BITLEVEL_CHUNK)

    a_entry: Any
    handle: ArenaHandle | None = None
    if a_fields is not None:
        a_entry = ("fields",) + tuple(a_fields)
        if blk < n and a_key is not None:
            handle = arena_publish(
                a_key,
                {"hi": a_fields[0], "lo": a_fields[1], "exp": a_fields[2]},
            )
    else:
        a_entry = aq
        if use_cache and blk < n and a_key is not None and aq is not None:
            handle = arena_publish(a_key, {"dense": aq})
    if handle is not None:
        a_entry = handle
        arena_pin(handle)
    try:
        tasks = [
            (
                a_entry,
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
    finally:
        if handle is not None:
            arena_unpin(handle)
    if len(results) == 1:
        return results[0]
    return np.concatenate(results, axis=1)
