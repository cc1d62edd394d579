"""FFT built from complex GEMMs (the tcFFT/M3XU formulation).

Section VI-C1: "M3XU can directly compute FFT using its FP32C mode". The
GEMM formulation is the Bailey/four-step factorisation: an N-point DFT
with N = N1 * N2 becomes

1. reshape x into an (N1, N2) matrix (index n = n1 * N2 + n2),
2. DFT along columns:   Y = F_{N1} @ X          (CGEMM, N1 x N2 x N1)
3. twiddle:             Y *= W_N^{k1 * n2}
4. DFT along rows:      Z = Y @ F_{N2}^T        (CGEMM, N1 x N2 x N2)
5. output index k = k2 * N1 + k1 (transpose read-out).

Applied recursively this reduces the whole FFT to complex GEMMs against
small DFT matrices — exactly the work M3XU's FP32C mode executes
natively. Any CGEMM callable can be injected, so the same FFT runs on the
M3XU functional model, the FP16/TF32 software schemes, or float64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["dft_matrix", "gemm_fft", "CGemmFn"]

CGemmFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def dft_matrix(n: int, inverse: bool = False) -> np.ndarray:
    """The dense n-point DFT matrix ``F[j, k] = exp(-2 pi i j k / n)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sign = 2.0j if inverse else -2.0j
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(sign * np.pi * jk / n)


def _split(n: int, base: int) -> tuple[int, int]:
    """Factor n = n1 * n2 with n1 <= base, preferring n1 = base."""
    n1 = base
    while n % n1:
        n1 //= 2
        if n1 < 2:
            raise ValueError(f"cannot factor {n} over radix base {base}")
    return n1, n // n1


def gemm_fft(
    x: np.ndarray,
    cgemm: CGemmFn | None = None,
    base_radix: int = 16,
    inverse: bool = False,
) -> np.ndarray:
    """1-D FFT of the last axis via recursive four-step CGEMM factorisation.

    Parameters
    ----------
    x:
        complex input, shape ``(..., N)``; N must factor into powers of 2
        (any power-of-two N works).
    cgemm:
        Complex GEMM callable ``(a, b) -> a @ b`` executing each DFT-matrix
        multiplication (e.g. the M3XU functional CGEMM). ``None`` uses
        float64 matmul (reference).
    base_radix:
        Largest DFT handled by a single dense-matrix CGEMM. 16-64 mirrors
        the tile sizes an MXU digests.
    inverse:
        Compute the inverse DFT (unscaled; callers divide by N).
    """
    if cgemm is None:
        cgemm = lambda a, b: a @ b  # noqa: E731 - reference path
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError("gemm_fft requires power-of-two sizes")
    batch = x.reshape(-1, n)
    out = np.empty_like(batch)
    for i, row in enumerate(batch):
        out[i] = _fft_recursive(row, cgemm, base_radix, inverse)
    return out.reshape(x.shape)


def _fft_recursive(
    x: np.ndarray, cgemm: CGemmFn, base: int, inverse: bool
) -> np.ndarray:
    n = x.shape[0]
    if n <= base:
        return cgemm(dft_matrix(n, inverse), x[:, None])[:, 0]
    n1, n2 = _split(n, base)
    mat = x.reshape(n1, n2)  # n = n1*N2 + n2 row-major
    # Column DFT over n1 (a single CGEMM against the small DFT matrix).
    y = cgemm(dft_matrix(n1, inverse), mat)
    # Twiddle factors W_N^{k1 * n2}.
    sign = 2.0j if inverse else -2.0j
    k1 = np.arange(n1)[:, None]
    n2i = np.arange(n2)[None, :]
    y = y * np.exp(sign * np.pi * k1 * n2i / n)
    # Row DFTs over n2, recursively (columns of y are independent
    # n2-point transforms -> recurse on each row of y^T in one batch).
    z = np.empty_like(y)
    for r in range(n1):
        z[r] = _fft_recursive(y[r], cgemm, base, inverse)
    # Output index k = k2 * n1 + k1.
    return z.T.reshape(-1)
