"""Host-level tiled GEMM driver over MXU MMA instructions.

A GEMM of arbitrary K is executed as a chain of instruction-sized K-chunks;
between chunks the running total lives in FP32 accumulator registers (the
C operand of the next MMA), so each chunk boundary is an FP32 rounding
point — the numerically significant part of mapping GEMM onto an MXU.
The M/N dimensions are purely data-parallel across dot-product units and
are therefore processed whole (tiling them would not change a single bit).

The driver builds a :class:`~repro.gemm.plan.GemmPlan` so each operand is
quantised and decomposed exactly once per GEMM instead of once per K-chunk
(bit-identical; see :mod:`repro.gemm.plan`) and feeds the pre-split slices
to the MXU model's ``mma_parts`` entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol

import numpy as np

from ..mxu.baseline import TensorCoreMXU
from ..mxu.m3xu import M3XU
from ..mxu.modes import MXUMode, step_plan
from ..mxu.parallel_bitlevel import sharded_bitlevel_gemm
from ..mxu.vectorized import BitLevelMXU
from ..resilience.abft import (
    AbftConfig,
    AbftReport,
    AbftUncorrectedError,
    guarded_gemm,
    resolve_abft,
)
from ..types.formats import FP32, FP64
from ..types.quantize import quantize, quantize_complex
from .plan import GemmPlan

__all__ = ["MXULike", "TiledGEMM", "mxu_sgemm", "mxu_cgemm", "tensorcore_gemm"]


class MXULike(Protocol):
    """Anything exposing the plan-driven MMA contract of the functional
    MXU models (:meth:`repro.mxu.m3xu.M3XU.mma_parts`)."""

    def mma_parts(
        self,
        a: np.ndarray,
        b: np.ndarray,
        a_parts: Mapping[str, np.ndarray],
        b_parts: Mapping[str, np.ndarray],
        c: np.ndarray | float,
        mode: MXUMode,
        *,
        c_quantized: bool = False,
    ) -> np.ndarray: ...


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
    fused:
        ``True`` (default) runs the value-level model (with its BLAS fast
        path where proven equivalent). ``False`` routes every MMA through
        the bit-level split/multiply/shift/accumulate datapath
        (:class:`~repro.mxu.vectorized.BitLevelMXU`): an ``M3XU`` model is
        swapped for the bit-level engine selected by ``REPRO_BITLEVEL``;
        a model already exposing ``bitlevel`` capability is kept as-is;
        anything else raises. ABFT tile recomputation inherits the same
        engine because the guard re-invokes this driver's own compute.
    workers:
        Worker count for the sharded bit-level path (plain
        :class:`~repro.mxu.vectorized.BitLevelMXU` only). ``None`` defers
        to ``REPRO_WORKERS``; every worker count is bit-identical to
        serial. Ignored by value-level models and fault-injecting
        wrappers, which keep the per-MMA path.
    """

    mxu: MXULike
    mode: MXUMode
    k_chunk: int | None = None
    abft: bool | None = None
    abft_config: AbftConfig | None = None
    fused: bool = True
    workers: int | None = None
    #: The last guarded run's :class:`~repro.resilience.abft.AbftReport`
    #: (``None`` when the guard is off or :meth:`run` has not executed).
    abft_report: AbftReport | None = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.fused and not getattr(self.mxu, "bitlevel", False):
            if isinstance(self.mxu, M3XU):
                self.mxu = BitLevelMXU()
            else:
                raise ValueError(
                    "fused=False requires a bit-level capable MXU model; "
                    f"{type(self.mxu).__name__} does not expose one"
                )
        if self.k_chunk is None:
            self.k_chunk = self.mxu.config.tile(self.mode).k  # type: ignore[attr-defined]
        if self.k_chunk < 1:
            raise ValueError("k_chunk must be >= 1")

    def run(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0
    ) -> np.ndarray:
        """Compute ``A @ B + C`` by chaining MMA instructions along K."""
        if resolve_abft(self.abft):
            return self._run_guarded(a, b, c)
        return self._run_plain(a, b, c)

    def _run_plain(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0
    ) -> np.ndarray:
        # Plain bit-level models take the column-sharded driver (bit-identical
        # to the per-MMA chain at every worker count). Subclasses and
        # fault-injecting wrappers keep the per-MMA path so their hooks see
        # every instruction.
        if type(self.mxu) is BitLevelMXU:
            return sharded_bitlevel_gemm(
                a,
                b,
                c,
                self.mode,
                engine=self.mxu.engine,
                acc_bits=self.mxu.acc_bits,
                rounding=self.mxu.rounding,
                k_chunk=int(self.k_chunk),
                workers=self.workers,
            )
        plan = GemmPlan.build(a, b, self.mode, int(self.k_chunk))
        return self.run_plan(plan, c)

    def _run_guarded(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float
    ) -> np.ndarray:
        """ABFT-guarded run: checksum-verify, localise, recompute.

        Operands are quantised to the mode's register formats *first* so
        the float64 checksum reference sees exactly the values the MMA
        datapath consumes (re-quantisation inside :meth:`_run_plain` is
        idempotent, keeping the guarded result bit-identical to an
        unguarded run).
        """
        self.abft_report = None
        in_fmt = step_plan(self.mode).input_format
        out_fmt = FP64 if self.mode is MXUMode.FP64 else FP32
        if self.mode is MXUMode.FP32C:
            aq = quantize_complex(np.asarray(a, dtype=np.complex128), FP32)
            bq = quantize_complex(np.asarray(b, dtype=np.complex128), FP32)
            c_arr = quantize_complex(np.asarray(c, dtype=np.complex128), FP32)
        else:
            aq = quantize(np.asarray(a, dtype=np.float64), in_fmt)
            bq = quantize(np.asarray(b, dtype=np.float64), in_fmt)
            # Matches _initial_acc: C enters via FP32 registers.
            c_arr = quantize(np.asarray(c, dtype=np.float64), FP32)
        roundoff = 2.0 ** -min(in_fmt.mantissa_bits, out_fmt.mantissa_bits)
        try:
            result, report = guarded_gemm(
                self._run_plain,
                aq,
                bq,
                c_arr,
                roundoff=roundoff,
                config=self.abft_config,
            )
        except AbftUncorrectedError as exc:
            self.abft_report = exc.report
            raise
        self.abft_report = report
        return result

    def run_plan(self, plan: GemmPlan, c: np.ndarray | float = 0.0) -> np.ndarray:
        """Execute a pre-resolved :class:`~repro.gemm.plan.GemmPlan`."""
        if plan.mode is not self.mode:
            raise ValueError(f"plan mode {plan.mode} != driver mode {self.mode}")
        acc = self._initial_acc(c, plan.out_shape)
        for ch in plan.chunks():
            acc = self.mxu.mma_parts(
                ch.a, ch.b, ch.a_parts, ch.b_parts, acc, self.mode, c_quantized=True
            )
        return acc

    def _initial_acc(
        self, c: np.ndarray | float, out_shape: tuple[int, ...]
    ) -> np.ndarray:
        if self.mode is MXUMode.FP32C:
            return np.broadcast_to(
                quantize_complex(np.asarray(c, dtype=np.complex128), FP32), out_shape
            ).copy()
        return np.broadcast_to(
            quantize(np.asarray(c, dtype=np.float64), FP32), out_shape
        ).copy()


def mxu_sgemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float = 0.0,
    mxu: M3XU | None = None,
    abft: bool | None = None,
    fused: bool = True,
    workers: int | None = None,
) -> np.ndarray:
    """FP32 GEMM on M3XU hardware (the functional ``M3XU_sgemm`` kernel).

    ``fused=False`` executes the true bit-level datapath (engine chosen
    by ``REPRO_BITLEVEL``) instead of the value-level model; that path is
    column-sharded over ``workers`` pool workers (``REPRO_WORKERS`` by
    default) with a bit-identical result at every worker count.
    """
    return TiledGEMM(
        mxu or M3XU(), MXUMode.FP32, abft=abft, fused=fused, workers=workers
    ).run(a, b, c)


def mxu_cgemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | complex = 0.0,
    mxu: M3XU | None = None,
    abft: bool | None = None,
    fused: bool = True,
    workers: int | None = None,
) -> np.ndarray:
    """FP32C GEMM on M3XU hardware (the functional ``M3XU_cgemm`` kernel).

    ``fused=False`` executes the true bit-level datapath (engine chosen
    by ``REPRO_BITLEVEL``) instead of the value-level model; that path is
    column-sharded over ``workers`` pool workers (``REPRO_WORKERS`` by
    default) with a bit-identical result at every worker count.
    """
    return TiledGEMM(
        mxu or M3XU(), MXUMode.FP32C, abft=abft, fused=fused, workers=workers
    ).run(a, b, c)


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
