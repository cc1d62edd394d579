"""Software emulation schemes: FP32(-complex) GEMM on low-precision MXUs.

These are the functional models of the paper's software baselines
(Table IV and Section II-C.1): the input matrices are decomposed into
low-precision terms with explicit instructions, several low-precision
tensor-core GEMMs are launched, and the partial results are combined —
"software alternatives unavoidably have to decouple values and compensate
for potential precision losses."

* :func:`tensorop_sgemm_3xtf32` — ``cutlass_tensorop_sgemm``: 3 TF32
  GEMMs (hi*hi, hi*lo, lo*hi; CUTLASS "omitted the 4th GEMM on two
  low-order portions of the FP32 inputs to reach better performance").
* :func:`eehc_sgemm_3xbf16` — ``EEHC_sgemm_fp32B`` [Ma et al., ICS'22]:
  the same 3-GEMM scheme on BF16 splits.
* :func:`markidis_sgemm_4xfp16` — the classic 4-GEMM FP16 scheme
  [Markidis et al.] kept as an ablation (FP16's 5-bit exponent also
  limits range).
* :func:`cgemm_via_4_real` — the standard 4-real-GEMM complex
  decomposition used by all software complex baselines (Section VII).
* :func:`tensorop_cgemm_3xtf32` — ``cutlass_tensorop_cgemm``: the complex
  decomposition with each real GEMM performed by the 3xTF32 scheme.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..mxu.baseline import TensorCoreMXU
from ..mxu.modes import MXUMode
from ..types.decompose import split_round_residual
from ..types.formats import BF16, FP16, FP32, TF32, FloatFormat
from ..types.quantize import quantize
from .tiled import TiledGEMM

__all__ = [
    "split_gemm",
    "tensorop_sgemm_3xtf32",
    "eehc_sgemm_3xbf16",
    "markidis_sgemm_4xfp16",
    "cgemm_via_4_real",
    "tensorop_cgemm_3xtf32",
    "fp16_tensorcore_sgemm",
]

RealGEMM = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def split_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float,
    base: FloatFormat,
    mode: MXUMode,
    n_gemms: int,
    mxu: TensorCoreMXU | None = None,
) -> np.ndarray:
    """Generic k-GEMM residual-split emulation of FP32 GEMM.

    Splits ``A = A0 + A1`` and ``B = B0 + B1`` (round + rounded residual in
    *base*) and accumulates the cross products from least to most
    significant — the ordering the real kernels use so that small terms
    are not absorbed before the large ones arrive:

    * ``n_gemms = 3``: ``A0*B1``, ``A1*B0``, ``A0*B0`` (drops ``A1*B1``)
    * ``n_gemms = 4``: adds ``A1*B1`` first.

    Every GEMM runs on the baseline tensor core in *mode* with FP32
    accumulation chained through C.
    """
    if n_gemms not in (3, 4):
        raise ValueError("n_gemms must be 3 or 4")
    a = quantize(a, FP32)
    b = quantize(b, FP32)
    a0, a1 = split_round_residual(a, base, 2)
    b0, b1 = split_round_residual(b, base, 2)
    driver = TiledGEMM(mxu or TensorCoreMXU(), mode, abft=False)
    pairs = ([(a1, b1)] if n_gemms == 4 else []) + [(a0, b1), (a1, b0), (a0, b0)]
    acc = c
    for x, y in pairs:
        acc = driver.run(x, y, acc)
    return acc


def tensorop_sgemm_3xtf32(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0,
    mxu: TensorCoreMXU | None = None,
) -> np.ndarray:
    """``cutlass_tensorop_sgemm``: FP32 GEMM as 3 TF32 tensor-core GEMMs."""
    return split_gemm(a, b, c, TF32, MXUMode.TF32, 3, mxu)


def eehc_sgemm_3xbf16(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0,
    mxu: TensorCoreMXU | None = None,
) -> np.ndarray:
    """``EEHC_sgemm_fp32B``: FP32 GEMM as 3 BF16 tensor-core GEMMs."""
    return split_gemm(a, b, c, BF16, MXUMode.BF16, 3, mxu)


def markidis_sgemm_4xfp16(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0,
    mxu: TensorCoreMXU | None = None,
) -> np.ndarray:
    """4-GEMM FP16 recovery scheme (ablation; range-limited by FP16)."""
    return split_gemm(a, b, c, FP16, MXUMode.FP16, 4, mxu)


def fp16_tensorcore_sgemm(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0,
    mxu: TensorCoreMXU | None = None,
) -> np.ndarray:
    """Plain FP16 tensor-core GEMM of FP32 data (no recovery).

    The fast-but-wrong option the kNN case study measures against: "the
    reduced precision will produce meaningless computation results for
    input data with extremely small values."
    """
    return TiledGEMM(mxu or TensorCoreMXU(), MXUMode.FP16).run(a, b, c)


def cgemm_via_4_real(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | complex,
    real_gemm: RealGEMM,
) -> np.ndarray:
    """Complex GEMM as four real GEMMs (Section VII: "existing projects
    must perform four matrix multiplications ... for complex numbers").

    ``Re = Ar*Br - Ai*Bi``, ``Im = Ar*Bi + Ai*Br``; the subtraction is a
    negated accumulation through C, matching the kernels' epilogues.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    ar, ai = a.real.copy(), a.imag.copy()
    br, bi = b.real.copy(), b.imag.copy()
    m, n = a.shape[0], b.shape[1]
    cr = np.broadcast_to(quantize(c.real, FP32), (m, n)).copy()
    ci = np.broadcast_to(quantize(c.imag, FP32), (m, n)).copy()
    re = real_gemm(ar, br, cr)
    re = real_gemm(-ai, bi, re)
    im = real_gemm(ar, bi, ci)
    im = real_gemm(ai, br, im)
    return re + 1j * im


def tensorop_cgemm_3xtf32(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | complex = 0.0,
    mxu: TensorCoreMXU | None = None,
) -> np.ndarray:
    """``cutlass_tensorop_cgemm``: complex GEMM, each real part by 3xTF32."""
    def real_gemm(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return tensorop_sgemm_3xtf32(x, y, z, mxu)

    return cgemm_via_4_real(a, b, c, real_gemm)
