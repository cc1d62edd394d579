"""Functional model of M3XU: the multi-mode matrix unit (Section IV).

:class:`M3XU` extends the baseline Tensor Core with three multi-step
modes, all built on the same 12-bit-significand multiplier lanes:

* ``FP32`` — 2 steps per MMA, exact hi/lo mantissa decomposition (Eq. 3-8).
  All four partial products per operand pair are exact and the 48-bit
  shifted accumulation holds their aligned sum, so the MMA result is the
  correctly rounded FP32 dot product in all but one corner: an FP32
  midpoint tie broken only by bits below the 48-bit window rounds to even
  instead (still within half an ulp of the exact value, and FP32 FMA
  chains lose those bits too). This realises — and slightly sharpens —
  the paper's "the computation result of M3XU is exactly the same as
  FP32" claim (Section V-B); tests assert both the half-ulp bound and
  never-worse-than-SIMT.
* ``FP32C`` — 4 steps per MMA over the real/imaginary x high/low split
  (Eq. 9), with the sign-flip datapath subtracting the imag*imag products.
* ``FP64`` — the Section IV-C sketch: 4 steps over 27-bit operand slices.

One MMA = exact lane products -> wide aligned accumulation (48-bit model)
-> single rounding into the output register format, executed by the fused
accumulation of :mod:`repro.mxu.fused` (BLAS where provably equivalent).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..types.formats import FP32, FP64, FloatFormat
from ..types.quantize import quantize
from .config import M3XU_CONFIG, MXUConfig
from .dataflow import resolve_parts
from .fused import accumulate_mma
from .modes import MXUMode, step_plan

__all__ = ["M3XU"]


class M3XU:
    """The multi-mode MXU. See module docstring.

    Parameters
    ----------
    config:
        Hardware configuration (non-pipelined M3XU by default; the
        pipelined variant is numerically identical and differs only in the
        performance/synthesis models).
    """

    def __init__(self, config: MXUConfig = M3XU_CONFIG) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def supported_modes(self) -> frozenset[MXUMode]:
        return self.config.modes

    def steps(self, mode: MXUMode) -> int:
        """Steps (cycles) one MMA takes in *mode* — 1/1/1/2/4/4."""
        return step_plan(mode).n_steps

    def output_format(self, mode: MXUMode) -> FloatFormat:
        return FP64 if mode is MXUMode.FP64 else FP32

    # ------------------------------------------------------------------
    def mma(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | float,
        mode: MXUMode,
    ) -> np.ndarray:
        """One multi-step MMA instruction: ``D = round(A @ B + C)``.

        Real modes take float64 arrays carrying format-representable
        values; FP32C takes complex128 arrays whose components are FP32
        values and returns complex128 FP32-component results.
        """
        if not self.config.supports(mode):
            raise ValueError(f"{self.config.name} does not support {mode.value}")
        if mode is MXUMode.FP32C:
            a = np.asarray(a, dtype=np.complex128)
            b = np.asarray(b, dtype=np.complex128)
        else:
            a = np.asarray(a, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"K mismatch: A{a.shape} @ B{b.shape}")
        return self.mma_parts(
            a, b, resolve_parts(a, mode), resolve_parts(b, mode), c, mode
        )

    # Convenience wrappers mirroring the kernel names of Table II ---------
    def mma_fp32(self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float) -> np.ndarray:
        """Native FP32 MMA (the M3XU_sgemm building block)."""
        return self.mma(a, b, c, MXUMode.FP32)

    def mma_fp32c(self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float) -> np.ndarray:
        """Native FP32-complex MMA (the M3XU_cgemm building block)."""
        return self.mma(a, b, c, MXUMode.FP32C)

    def mma_fp64(self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float) -> np.ndarray:
        """FP64 MMA per the Section IV-C extension sketch."""
        return self.mma(a, b, c, MXUMode.FP64)

    # ------------------------------------------------------------------
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
    ) -> np.ndarray:
        """One MMA over pre-split operands (the plan-driven entry point).

        *a*/*b* are the dense quantised operand slices, *a_parts*/*b_parts*
        their :func:`~repro.mxu.dataflow.resolve_parts` decomposition —
        typically views served by a :class:`~repro.gemm.plan.GemmPlan`, so
        the split work is paid once per GEMM instead of once per K-chunk.
        ``c_quantized=True`` skips the (idempotent) re-quantisation of an
        accumulator that is already in register format, as it always is
        between the chained MMAs of a K-chunk loop.
        """
        if not self.config.supports(mode):
            raise ValueError(f"{self.config.name} does not support {mode.value}")
        if mode is MXUMode.FP32C:
            return self._mma_complex_parts(a, b, a_parts, b_parts, c, c_quantized)
        return self._mma_real_parts(a, b, a_parts, b_parts, c, mode, c_quantized)

    def _mma_real_parts(
        self,
        a: np.ndarray,
        b: np.ndarray,
        a_parts: Mapping[str, np.ndarray],
        b_parts: Mapping[str, np.ndarray],
        c: np.ndarray | float,
        mode: MXUMode,
        c_quantized: bool,
    ) -> np.ndarray:
        out_fmt = self.output_format(mode)
        c_arr = np.asarray(c, dtype=np.float64)
        c_q = c_arr if c_quantized else quantize(c_arr, out_fmt)
        # FP64 mode's 54-bit lane products exceed the 48-bit path; its
        # accumulation registers are FP64, modelled by the float64 path.
        acc_bits = None if mode is MXUMode.FP64 else self.config.acc_bits
        if "X" in a_parts:
            # Single-step modes multiply the input-format-quantised operand,
            # not the raw register value; the fast-path dot must match.
            a, b = a_parts["X"], b_parts["X"]
        return accumulate_mma(
            [(a, b, False)],
            a_parts,
            b_parts,
            mode,
            "real",
            c_q,
            acc_bits,
            self.config.acc_rounding,
            out_fmt,
        )

    def _mma_complex_parts(
        self,
        a: np.ndarray,
        b: np.ndarray,
        a_parts: Mapping[str, np.ndarray],
        b_parts: Mapping[str, np.ndarray],
        c: np.ndarray | complex,
        c_quantized: bool,
    ) -> np.ndarray:
        c_arr = np.asarray(c, dtype=np.complex128)
        ar, ai = np.ascontiguousarray(a.real), np.ascontiguousarray(a.imag)
        br, bi = np.ascontiguousarray(b.real), np.ascontiguousarray(b.imag)
        out = {}
        # Eq. 9: Re = Ar*Br - Ai*Bi, Im = Ar*Bi + Ai*Br, each through its
        # own 48-bit accumulation register.
        for part, c_part, terms in (
            ("real", c_arr.real, [(ar, br, False), (ai, bi, True)]),
            ("imag", c_arr.imag, [(ar, bi, False), (ai, br, False)]),
        ):
            c_p = np.asarray(c_part, dtype=np.float64)
            c_q = c_p if c_quantized else quantize(c_p, FP32)
            out[part] = accumulate_mma(
                terms,
                a_parts,
                b_parts,
                MXUMode.FP32C,
                part,
                c_q,
                self.config.acc_bits,
                self.config.acc_rounding,
                FP32,
            )
        return out["real"] + 1j * out["imag"]
