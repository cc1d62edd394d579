"""Functional model of the baseline Tensor Core MXU (Section II-A).

One MMA instruction multiplies low-precision operand tiles and accumulates
into FP32: products are formed exactly by the dot-product units, aligned
and summed through the wide internal datapath, and rounded once into the
FP32 accumulator (together with the C operand).

The baseline supports FP16, BF16 and TF32 inputs only — "Current Tensor
Cores provide no hardware support for true FP32 arithmetic or complex
numbers". Feeding FP32 data in TF32 mode silently drops 13 mantissa bits,
which is exactly the precision loss the software baselines must repair.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..types.formats import FP32
from ..types.quantize import quantize
from .config import AMPERE_MXU, MXUConfig
from .dataflow import resolve_parts
from .fused import accumulate_mma
from .modes import MXUMode

__all__ = ["TensorCoreMXU"]


class TensorCoreMXU:
    """Baseline Ampere-class Tensor Core: FP16/BF16/TF32 MMA, FP32 accumulate.

    Parameters
    ----------
    config:
        Hardware configuration; defaults to the Ampere baseline. The
        Ampere 27-bit window stays below the float64-proof threshold, so
        MMAs run the fused grouped reduction of :mod:`repro.mxu.fused`
        (no BLAS shortcut).

    Notes
    -----
    ``mma`` accepts arbitrary (batched) operand shapes. The *numerical*
    contract of one hardware instruction — exact products, one wide
    accumulation, one FP32 rounding — is honoured for whatever K is passed;
    GEMM drivers in :mod:`repro.gemm` chop K into instruction-sized chunks
    so that the inter-instruction FP32 rounding is modelled faithfully.
    """

    def __init__(self, config: MXUConfig = AMPERE_MXU) -> None:
        self.config = config

    def supported_modes(self) -> frozenset[MXUMode]:
        return self.config.modes

    def mma(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | float,
        mode: MXUMode,
    ) -> np.ndarray:
        """One MMA: ``D = round_fp32(A @ B + C)`` with mode-format inputs.

        Inputs are quantised to the mode's input format on the way in
        (modelling the register-file conversion; pre-quantised data passes
        through unchanged).
        """
        self._check_mode(mode)
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"K mismatch: A{a.shape} @ B{b.shape}")
        return self.mma_parts(
            a, b, resolve_parts(a, mode), resolve_parts(b, mode), c, mode
        )

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

        See :meth:`repro.mxu.m3xu.M3XU.mma_parts`; for the baseline modes
        the single part ``X`` is the input-format-quantised operand.
        """
        self._check_mode(mode)
        c_arr = np.asarray(c, dtype=np.float64)
        c_q = c_arr if c_quantized else quantize(c_arr, FP32)
        return accumulate_mma(
            [(a_parts["X"], b_parts["X"], False)],
            a_parts,
            b_parts,
            mode,
            "real",
            c_q,
            self.config.acc_bits,
            self.config.acc_rounding,
            FP32,
        )

    def _check_mode(self, mode: MXUMode) -> None:
        if not self.config.supports(mode):
            raise ValueError(
                f"{self.config.name} has no hardware support for {mode.value}; "
                f"supported: {sorted(m.value for m in self.config.modes)}"
            )
