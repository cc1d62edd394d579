"""Accuracy studies: the numerical claims of Sections II-C and V-B.

Two claims are quantified here:

1. **M3XU loses nothing**: its FP32(-complex) GEMM results are at least
   as accurate as FP32 FMA chains on CUDA cores (in fact, each MMA is the
   correctly-rounded dot product thanks to the 48-bit accumulators).
2. **Software schemes lose bits**: 3xTF32 and 3xBF16 emulations retain
   "between one and several bits" less than FP32 — measured here as
   matching significand bits against a float64 reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..gemm.reference import cgemm_fp64, cgemm_simt, gemm_fp64, sgemm_simt
from ..gemm.schemes import (
    eehc_sgemm_3xbf16,
    fp16_tensorcore_sgemm,
    markidis_sgemm_4xfp16,
    tensorop_cgemm_3xtf32,
    tensorop_sgemm_3xtf32,
)
from ..gemm.tiled import mxu_cgemm, mxu_sgemm
from ..mxu.vectorized import BitLevelMXU
from ..types.errors import matching_bits, max_relative_error
from ..types.formats import FP32
from ..types.quantize import quantize, quantize_complex

__all__ = [
    "AccuracyResult",
    "sgemm_accuracy_study",
    "cgemm_accuracy_study",
    "SGEMM_IMPLS",
    "CGEMM_IMPLS",
    "BITLEVEL_SGEMM_IMPLS",
    "BITLEVEL_CGEMM_IMPLS",
    "bitlevel_sgemm",
    "bitlevel_cgemm",
]

SGEMM_IMPLS: dict[str, Callable] = {
    "fp32_simt": sgemm_simt,
    "m3xu_fp32": mxu_sgemm,
    "3xtf32": tensorop_sgemm_3xtf32,
    "3xbf16": eehc_sgemm_3xbf16,
    "4xfp16": markidis_sgemm_4xfp16,
    "fp16_tc": fp16_tensorcore_sgemm,
}

CGEMM_IMPLS: dict[str, Callable] = {
    "fp32c_simt": cgemm_simt,
    "m3xu_fp32c": mxu_cgemm,
    "3xtf32_c": tensorop_cgemm_3xtf32,
}


def bitlevel_sgemm(a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0) -> np.ndarray:
    """FP32 GEMM through the bit-level datapath (``REPRO_BITLEVEL`` engine)."""
    return mxu_sgemm(a, b, c, mxu=BitLevelMXU())


def bitlevel_cgemm(a: np.ndarray, b: np.ndarray, c: np.ndarray | complex = 0.0) -> np.ndarray:
    """FP32C GEMM through the bit-level datapath (``REPRO_BITLEVEL`` engine)."""
    return mxu_cgemm(a, b, c, mxu=BitLevelMXU())


#: Study rosters that run the true split/multiply/shift/accumulate
#: datapath. Kept separate from the value-level defaults so the headline
#: studies and the report stay as they are; pass
#: ``impls={**SGEMM_IMPLS, **BITLEVEL_SGEMM_IMPLS}`` to compare both in
#: one study.
BITLEVEL_SGEMM_IMPLS: dict[str, Callable] = {"m3xu_fp32_bitlevel": bitlevel_sgemm}
BITLEVEL_CGEMM_IMPLS: dict[str, Callable] = {"m3xu_fp32c_bitlevel": bitlevel_cgemm}


@dataclass(frozen=True)
class AccuracyResult:
    """Error of one implementation against the float64 reference."""

    name: str
    max_rel_error: float
    matching_bits: float
    mean_abs_error: float


def _well_conditioned(rng: np.ndarray, m: int, n: int, k: int) -> tuple:
    """Positive-mean operands: dot products do not catastrophically cancel,
    so errors measure rounding, not conditioning."""
    a = quantize(rng.uniform(0.5, 1.5, size=(m, k)), FP32)
    b = quantize(rng.uniform(0.5, 1.5, size=(k, n)), FP32)
    c = quantize(rng.uniform(-0.5, 0.5, size=(m, n)), FP32)
    return a, b, c


def sgemm_accuracy_study(
    m: int = 48, n: int = 48, k: int = 96, seed: int = 11,
    impls: dict[str, Callable] | None = None,
) -> list[AccuracyResult]:
    """Error of every FP32 GEMM implementation vs float64 (well-conditioned)."""
    rng = np.random.default_rng(seed)
    a, b, c = _well_conditioned(rng, m, n, k)
    ref = gemm_fp64(a, b, c)
    results = []
    for name, fn in (impls or SGEMM_IMPLS).items():
        got = fn(a, b, c)
        results.append(
            AccuracyResult(
                name=name,
                max_rel_error=max_relative_error(got, ref),
                matching_bits=matching_bits(got, ref),
                mean_abs_error=float(np.mean(np.abs(got - ref))),
            )
        )
    return results


def cgemm_accuracy_study(
    m: int = 32, n: int = 32, k: int = 64, seed: int = 13,
    impls: dict[str, Callable] | None = None,
) -> list[AccuracyResult]:
    """Error of every FP32C GEMM implementation vs complex128."""
    rng = np.random.default_rng(seed)
    a = quantize_complex(
        rng.uniform(0.5, 1.5, size=(m, k)) + 1j * rng.uniform(0.5, 1.5, size=(m, k)), FP32
    )
    b = quantize_complex(
        rng.uniform(0.5, 1.5, size=(k, n)) + 1j * rng.uniform(0.5, 1.5, size=(k, n)), FP32
    )
    c = np.zeros((m, n), dtype=np.complex128)
    ref = cgemm_fp64(a, b, c)
    results = []
    for name, fn in (impls or CGEMM_IMPLS).items():
        got = fn(a, b, c)
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
        mx = float(np.max(rel))
        results.append(
            AccuracyResult(
                name=name,
                max_rel_error=mx,
                matching_bits=float(min(53.0, -np.log2(mx))) if mx > 0 else 53.0,
                mean_abs_error=float(np.mean(np.abs(got - ref))),
            )
        )
    return results
