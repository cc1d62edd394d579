"""GEMM-based FFT: functional transform + Figure 6 performance models."""

from .gemmfft import CGemmFn, dft_matrix, gemm_fft
from .perf import FftPerf, cufft_time, fft_speedups, m3xu_fft_time, tcfft_time
from .utils import batch_fft, fft2, ifft, ifft2, irfft, rfft

__all__ = [
    "dft_matrix",
    "gemm_fft",
    "CGemmFn",
    "FftPerf",
    "cufft_time",
    "tcfft_time",
    "m3xu_fft_time",
    "fft_speedups",
    "fft2",
    "ifft2",
    "rfft",
    "irfft",
    "ifft",
    "batch_fft",
]
