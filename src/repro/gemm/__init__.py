"""GEMM drivers: references, MXU-tiled execution, software schemes."""

from .blas import CGEMM_BACKENDS, SGEMM_BACKENDS, cgemm, sgemm
from .reference import cgemm_fp64, cgemm_simt, gemm_fp64, sgemm_simt
from .schemes import (
    cgemm_via_4_real,
    eehc_sgemm_3xbf16,
    fp16_tensorcore_sgemm,
    markidis_sgemm_4xfp16,
    split_gemm,
    tensorop_cgemm_3xtf32,
    tensorop_sgemm_3xtf32,
)
from .tiled import TiledGEMM, mxu_cgemm, mxu_sgemm, tensorcore_gemm

__all__ = [
    "gemm_fp64",
    "cgemm_fp64",
    "sgemm_simt",
    "cgemm_simt",
    "TiledGEMM",
    "mxu_sgemm",
    "mxu_cgemm",
    "tensorcore_gemm",
    "split_gemm",
    "tensorop_sgemm_3xtf32",
    "eehc_sgemm_3xbf16",
    "markidis_sgemm_4xfp16",
    "fp16_tensorcore_sgemm",
    "cgemm_via_4_real",
    "tensorop_cgemm_3xtf32",
    "sgemm",
    "cgemm",
    "SGEMM_BACKENDS",
    "CGEMM_BACKENDS",
]
