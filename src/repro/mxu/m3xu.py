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
accumulation of :mod:`repro.mxu.fused` (BLAS where provably equivalent);
:meth:`M3XU.chain` runs a whole K-chain of them in one kernel call per
accumulation register.
"""

from __future__ import annotations

import numpy as np

from ..types.formats import FP32, FP64, FloatFormat
from ..types.quantize import quantize, representable
from .config import M3XU_CONFIG, MXUConfig
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
        values (the single-step modes quantise them to their input format,
        as the register-file conversion does); FP32C takes complex128
        arrays whose components are FP32 values and returns complex128
        FP32-component results. FP32 and FP32C reject operands that are
        not FP32 values (NaN and ±inf are).
        """
        if mode is MXUMode.FP32C:
            a = np.asarray(a, dtype=np.complex128)
            b = np.asarray(b, dtype=np.complex128)
        else:
            a = np.asarray(a, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
        if mode in (MXUMode.FP32, MXUMode.FP32C):
            for x in (a.real, a.imag, b.real, b.imag):
                if not representable(x, FP32).all():
                    raise ValueError("input contains values not representable in FP32")
        elif mode is not MXUMode.FP64:
            fmt = step_plan(mode).input_format
            a, b = quantize(a, fmt), quantize(b, fmt)
        return self.chain(a, b, c, mode)

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
    def chain(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | float | complex,
        mode: MXUMode,
        k_chunk: int | None = None,
        *,
        c_quantized: bool = False,
    ) -> np.ndarray:
        """``A @ B + C`` as a K-chain of MMAs, one fused call per register.

        *a*/*b* are the operands the multipliers consume (FP32 register
        values, complex128 for FP32C; input-format values for the
        single-step modes). Between chunks of *k_chunk* K elements the
        running sum is rounded into the output register, the C operand of
        the next MMA; ``None`` runs a single MMA over all of K.
        ``c_quantized=True`` skips the (idempotent) re-quantisation of an
        accumulator already in register format.
        """
        if not self.config.supports(mode):
            raise ValueError(f"{self.config.name} does not support {mode.value}")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"K mismatch: A{a.shape} @ B{b.shape}")
        out_fmt = self.output_format(mode)
        # FP64 mode's 54-bit lane products exceed the 48-bit path; its
        # accumulation registers are FP64, modelled by the float64 path.
        acc_bits = None if mode is MXUMode.FP64 else self.config.acc_bits
        if mode is MXUMode.FP32C:
            # Eq. 9: Re = Ar*Br - Ai*Bi, Im = Ar*Bi + Ai*Br, each through its
            # own 48-bit accumulation register.
            c_arr = np.asarray(c, dtype=np.complex128)
            registers = {"real": c_arr.real, "imag": c_arr.imag}
        else:
            registers = {"real": np.asarray(c, dtype=np.float64)}
        out = {}
        for name, c_part in registers.items():
            c_q = c_part if c_quantized else quantize(c_part, out_fmt)
            out[name] = accumulate_mma(
                a, b, c_q, mode, name, acc_bits, self.config.acc_rounding, out_fmt, k_chunk
            )
        if mode is not MXUMode.FP32C:
            return out["real"]
        # Assembled without complex arithmetic: 1j * inf would put a NaN into
        # the real part and couple the two independent registers.
        d = out["real"].astype(np.complex128)
        d.imag = out["imag"]
        return d
