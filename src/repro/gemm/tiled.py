"""Host-level tiled GEMM driver over MXU MMA instructions.

A GEMM of arbitrary K is executed as a chain of instruction-sized K-chunks;
between chunks the running total lives in FP32 accumulator registers (the
C operand of the next MMA), so each chunk boundary is an FP32 rounding
point — the numerically significant part of mapping GEMM onto an MXU.
The M/N dimensions are purely data-parallel across dot-product units and
are therefore processed whole (tiling them would not change a single bit).

The driver quantises each operand once (:func:`register_operand`) and
hands the whole chain to the model's ``chain`` method: one fused kernel
call per accumulation register on :class:`~repro.mxu.m3xu.M3XU`, and at
most three chain calls inside a fault-injecting wrapper, which runs the
instruction its fault names alone.

Leading axes of A and B are batch axes (broadcast like ``np.matmul``):
a stack of GEMMs is one GEMM whose output elements each have their own
dot-product unit and accumulation register, so it runs as one ``chain``
call like any other, and an ABFT-guarded stack is checked matrix by
matrix against each matrix's own checksums.

Output columns never interact, so a large GEMM fans out here: one column
block per worker, each block's whole K-chain one ``chain`` call on a pool
worker, bit-identical to the in-process call. Each block must carry
:data:`SHARD_MIN_MACS` multiply-adds, batch axes included;
:meth:`TiledGEMM._column_blocks` holds the whole decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..mxu.baseline import TensorCoreMXU
from ..mxu.m3xu import M3XU
from ..mxu.modes import MXUMode, step_plan
from ..parallel import in_worker, parallel_map, resolve_workers, split_ranges
from ..resilience.abft import (
    AbftConfig,
    AbftReport,
    AbftUncorrectedError,
    guarded_gemm,
    resolve_abft,
)
from ..types.formats import FP32, FP64
from ..types.quantize import quantize, quantize_complex

__all__ = [
    "MXULike",
    "SHARD_MIN_MACS",
    "TiledGEMM",
    "register_operand",
    "mxu_sgemm",
    "mxu_cgemm",
    "tensorcore_gemm",
]


#: Multiply-adds a column block must carry (FP32C counts four per
#: complex one). On a 2-vCPU VM two blocks ran 128³ FP32 at half speed,
#: 256³ (2**24) 1.16x and 512³ 1.5-1.7x faster (docs/performance.md).
SHARD_MIN_MACS = 1 << 24


def register_operand(x: np.ndarray, mode: MXUMode) -> np.ndarray:
    """*x* quantised as the tiled driver feeds it to the multipliers.

    FP32 registers for FP32 (complex128 pairs for FP32C), the mode's
    input format for the single-step modes, float64 as-is for FP64.
    """
    if mode is MXUMode.FP32C:
        return quantize_complex(np.asarray(x, dtype=np.complex128), FP32)
    arr = np.asarray(x, dtype=np.float64)
    if mode is MXUMode.FP64:
        return arr
    return quantize(arr, step_plan(mode).input_format)


class MXULike(Protocol):
    """Anything exposing the K-chain contract of the functional MXU
    models (:meth:`repro.mxu.m3xu.M3XU.chain`)."""

    def chain(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | float | complex,
        mode: MXUMode,
        k_chunk: int | None = None,
        *,
        c_quantized: bool = False,
    ) -> np.ndarray: ...


def _out_shape(aq: np.ndarray, bq: np.ndarray) -> tuple[int, ...]:
    batch = np.broadcast_shapes(aq.shape[:-2], bq.shape[:-2])
    return (*batch, aq.shape[-2], bq.shape[-1])


def _fold(part: AbftReport, before: AbftReport, shape: tuple[int, ...]) -> AbftReport:
    """One matrix's guard report, with the counts and detections of the
    matrices *before* it in the stack folded in: the report of the
    *shape* output so far."""
    part.shape = shape
    part.checks += before.checks
    part.recompute_rounds += before.recompute_rounds
    part.recomputed_tiles += before.recomputed_tiles
    part.detections[:0] = before.detections
    return part


def _chain_block(
    task: tuple[MXULike, np.ndarray, np.ndarray, np.ndarray, MXUMode, int],
) -> np.ndarray:
    """One column block's whole K-chain (a pool task: the unit arrives
    pickled)."""
    unit, a, b, c, mode, k_chunk = task
    return unit.chain(a, b, c, mode, k_chunk, c_quantized=True)


@dataclass
class TiledGEMM:
    """GEMM driver binding an MXU model to a mode.

    Parameters
    ----------
    mxu:
        The MXU functional model executing each MMA.
    mode:
        Operating mode (decides the instruction K and input handling).
    k_chunk:
        K elements consumed per MMA instruction. Defaults to the MXU's
        instruction tile K for the mode.
    abft:
        Guard every :meth:`run` with ABFT row/column checksums
        (:mod:`repro.resilience.abft`). ``None`` (default) defers to the
        ``REPRO_ABFT`` environment gate; the guarded result is
        bit-identical to the unguarded one on a fault-free datapath.
    abft_config:
        Guard parameters (tile size, tolerance safety, recompute rounds).
    workers:
        Pool workers a large GEMM's column blocks fan out over (see the
        module docstring). ``None`` defers to ``REPRO_WORKERS``; every
        worker count is bit-identical to the in-process call.
    """

    mxu: MXULike
    mode: MXUMode
    k_chunk: int | None = None
    abft: bool | None = None
    abft_config: AbftConfig | None = None
    workers: int | None = None
    #: The last guarded run's :class:`~repro.resilience.abft.AbftReport`
    #: (``None`` when the guard is off or :meth:`run` has not executed).
    abft_report: AbftReport | None = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        if self.k_chunk is None:
            self.k_chunk = self.mxu.config.tile(self.mode).k  # type: ignore[attr-defined]
        if self.k_chunk < 1:
            raise ValueError("k_chunk must be >= 1")

    def run(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0
    ) -> np.ndarray:
        """Compute ``A @ B + C`` by chaining MMA instructions along K
        (leading axes of A and B are batch axes, broadcast together)."""
        if resolve_abft(self.abft):
            return self._run_guarded(a, b, c)
        return self._run_plain(a, b, c)

    def _run_plain(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0
    ) -> np.ndarray:
        aq = register_operand(a, self.mode)
        bq = register_operand(b, self.mode)
        cq = self._register_c(c)
        step = int(self.k_chunk)
        blocks = self._column_blocks(aq, bq)
        if not blocks:
            return self.mxu.chain(aq, bq, cq, self.mode, step, c_quantized=True)
        # Dense A rides along with every block, so the transport ships it
        # once per call; columns are not rounding seams, so the blocks
        # concatenate to the in-process result bit for bit.
        c_out = np.broadcast_to(cq, _out_shape(aq, bq))
        pieces = parallel_map(
            _chain_block,
            [
                (self.mxu, aq, bq[..., lo:hi], c_out[..., lo:hi], self.mode, step)
                for lo, hi in blocks
            ],
            workers=len(blocks),
        )
        return np.concatenate(pieces, axis=-1)

    def _column_blocks(self, aq: np.ndarray, bq: np.ndarray) -> list[tuple[int, int]]:
        """The column ranges of a fanned-out run (none: in process).

        One block per worker, and no more blocks than each can fill with
        :data:`SHARD_MIN_MACS` multiply-adds, counted over every batch
        axis. A unit that sets ``requires_serial`` never leaves the
        process, nor does a call inside a pool worker, where the blocks
        would only run in turn.
        """
        if getattr(self.mxu, "requires_serial", False) or in_worker():
            return []
        if min(aq.ndim, bq.ndim) < 2:
            return []
        work = math.prod(_out_shape(aq, bq)) * aq.shape[-1]
        if self.mode is MXUMode.FP32C:
            work *= 4
        parts = min(resolve_workers(self.workers), work // SHARD_MIN_MACS)
        blocks = split_ranges(bq.shape[-1], parts)
        return blocks if len(blocks) > 1 else []

    def _run_guarded(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float
    ) -> np.ndarray:
        """ABFT-guarded run: checksum-verify, localise, recompute.

        Operands are quantised to the mode's register formats *first* so
        the float64 checksum reference sees exactly the values the MMA
        datapath consumes (re-quantisation inside :meth:`_run_plain` is
        idempotent, keeping the guarded result bit-identical to an
        unguarded run). The whole stack runs as one :meth:`_run_plain`
        call; each matrix is then verified against its own checksums and
        its flagged tiles recomputed. A stack's one report sums the
        matrices' counts and lists their detections in matrix order.
        """
        self.abft_report = None
        in_fmt = step_plan(self.mode).input_format
        out_fmt = FP64 if self.mode is MXUMode.FP64 else FP32
        aq = register_operand(a, self.mode)
        bq = register_operand(b, self.mode)
        roundoff = 2.0 ** -min(in_fmt.mantissa_bits, out_fmt.mantissa_bits)
        shape = _out_shape(aq, bq)
        batch = shape[:-2]
        cq = np.broadcast_to(self._register_c(c), shape)
        out = result = self._run_plain(aq, bq, cq)
        a_stack = np.broadcast_to(aq, (*batch, *aq.shape[-2:]))
        b_stack = np.broadcast_to(bq, (*batch, *bq.shape[-2:]))
        report = AbftReport(shape=shape, tile=(self.abft_config or AbftConfig()).tile)
        for i in np.ndindex(*batch):
            matrix = out[i]
            try:
                verified, part = guarded_gemm(
                    self._run_plain,
                    a_stack[i],
                    b_stack[i],
                    cq[i],
                    roundoff=roundoff,
                    config=self.abft_config,
                    out=matrix,
                )
            except AbftUncorrectedError as exc:
                self.abft_report = _fold(exc.report, report, shape)
                raise
            report = _fold(part, report, shape)
            if verified is not matrix:
                if result is out:  # never mutate the kernel's own return buffer
                    result = np.array(out, copy=True)
                result[i] = verified
        self.abft_report = report
        return result

    def _register_c(self, c: np.ndarray | float) -> np.ndarray:
        """C as it enters the FP32 accumulator registers."""
        if self.mode is MXUMode.FP32C:
            return quantize_complex(np.asarray(c, dtype=np.complex128), FP32)
        return quantize(np.asarray(c, dtype=np.float64), FP32)


def mxu_sgemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float = 0.0,
    mxu: MXULike | None = None,
    abft: bool | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """FP32 GEMM on M3XU hardware (the functional ``M3XU_sgemm`` kernel).

    ``mxu=BitLevelMXU()`` executes the true bit-level datapath (engine
    chosen by ``REPRO_BITLEVEL``) instead of the value-level model.
    """
    return TiledGEMM(mxu or M3XU(), MXUMode.FP32, abft=abft, workers=workers).run(a, b, c)


def mxu_cgemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | complex = 0.0,
    mxu: MXULike | None = None,
    abft: bool | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """FP32C GEMM on M3XU hardware (the functional ``M3XU_cgemm`` kernel).

    ``mxu=BitLevelMXU()`` executes the true bit-level datapath (engine
    chosen by ``REPRO_BITLEVEL``) instead of the value-level model.
    """
    return TiledGEMM(mxu or M3XU(), MXUMode.FP32C, abft=abft, workers=workers).run(a, b, c)


def tensorcore_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float,
    mode: MXUMode,
    mxu: TensorCoreMXU | None = None,
) -> np.ndarray:
    """Low-precision GEMM on the baseline Tensor Core (FP16/BF16/TF32).

    Inputs are quantised to the mode's format by the MMA model — this is
    where TF32's 13 dropped mantissa bits (and FP16's range limits) bite.
    """
    return TiledGEMM(mxu or TensorCoreMXU(), mode).run(a, b, c)
