"""The K-chunked tiled GEMM driver."""

import numpy as np
import pytest

from repro.gemm import TiledGEMM, mxu_cgemm, mxu_sgemm, tensorcore_gemm
from repro.mxu import (
    M3XU,
    BitLevelMXU,
    FaultSpec,
    FaultStage,
    FaultyM3XU,
    MXUMode,
    TensorCoreMXU,
)
from repro.types import FP16, FP32, quantize, quantize_complex
from tests.conftest import fp32_array, fp32c_array


class TestChunking:
    def test_default_chunk_is_instruction_k(self):
        d = TiledGEMM(M3XU(), MXUMode.FP32)
        assert d.k_chunk == 4
        d16 = TiledGEMM(M3XU(), MXUMode.FP16)
        assert d16.k_chunk == 8
        dc = TiledGEMM(M3XU(), MXUMode.FP32C)
        assert dc.k_chunk == 2

    def test_matches_manual_chunk_loop(self, rng):
        m, n, k = 8, 8, 16
        a = fp32_array(rng, (m, k))
        b = fp32_array(rng, (k, n))
        u = M3XU()
        got = mxu_sgemm(a, b, 0.0, u)
        acc = np.zeros((m, n))
        for k0 in range(0, k, 4):
            acc = u.mma_fp32(a[:, k0 : k0 + 4], b[k0 : k0 + 4, :], acc)
        np.testing.assert_array_equal(got, acc)

    def test_chunk_size_changes_rounding(self, rng):
        # Different chunk boundaries -> different inter-instruction FP32
        # roundings; results must be close but generally not identical.
        m = n = 16
        k = 256
        a = fp32_array(rng, (m, k))
        b = fp32_array(rng, (k, n))
        d4 = TiledGEMM(M3XU(), MXUMode.FP32, k_chunk=4).run(a, b, 0.0)
        d64 = TiledGEMM(M3XU(), MXUMode.FP32, k_chunk=64).run(a, b, 0.0)
        np.testing.assert_allclose(d4, d64, rtol=5e-5, atol=1e-5)
        assert np.any(d4 != d64)

    def test_ragged_k(self, rng):
        a = fp32_array(rng, (4, 7))  # 7 not divisible by 4
        b = fp32_array(rng, (7, 4))
        d = mxu_sgemm(a, b, 0.0)
        np.testing.assert_allclose(d, a @ b, rtol=1e-6)

    def test_k_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            mxu_sgemm(np.zeros((2, 4)), np.zeros((5, 2)), 0.0)

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            TiledGEMM(M3XU(), MXUMode.FP32, k_chunk=0)


def _faulty(unit):
    return FaultyM3XU(FaultSpec(FaultStage.SIGN_FLIP, element=(0, 0)), unit)


_UNITS = {
    "m3xu": M3XU,
    "tensorcore": TensorCoreMXU,
    "faulty-m3xu": lambda: _faulty(M3XU()),
    "faulty-bitlevel": lambda: _faulty(BitLevelMXU()),
}


class TestEmptyK:
    """K = 0: a chain of no MMAs returns C as it enters the registers."""

    @pytest.mark.parametrize(
        "unit_name, mode",
        [
            ("m3xu", MXUMode.FP32),
            ("m3xu", MXUMode.FP32C),
            ("m3xu", MXUMode.FP64),
            ("tensorcore", MXUMode.TF32),
            ("tensorcore", MXUMode.FP16),
            ("faulty-m3xu", MXUMode.FP32),
            ("faulty-m3xu", MXUMode.FP32C),
            ("faulty-bitlevel", MXUMode.FP32),
            ("faulty-bitlevel", MXUMode.FP32C),
        ],
    )
    def test_returns_register_c(self, rng, unit_name, mode):
        unit = _UNITS[unit_name]()
        c = rng.standard_normal((6, 4))
        if mode is MXUMode.FP32C:
            dtype = np.complex128
            c = c + 1j * rng.standard_normal((6, 4))
            want = quantize_complex(c, FP32)
        else:
            dtype = np.float64
            want = quantize(c, FP32)
        a, b = np.zeros((6, 0), dtype=dtype), np.zeros((0, 4), dtype=dtype)
        got = TiledGEMM(unit, mode, abft=False).run(a, b, c)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not getattr(unit, "fired", False)

    @pytest.mark.parametrize("mode", [MXUMode.TF32, MXUMode.FP16, MXUMode.FP64])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["subclass", "faulty"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_bitlevel_units_reject_unsupported_modes(self, mode, wrapped, k):
        # The mode check lives in the unit's chain, so it runs even when
        # the chain has no MMA.
        class Hooked(BitLevelMXU):
            pass

        unit = _faulty(BitLevelMXU()) if wrapped else Hooked()
        gemm = TiledGEMM(unit, mode, abft=False)
        with pytest.raises(ValueError, match="fp32/fp32c only"):
            gemm.run(np.ones((6, k)), np.ones((k, 4)), np.ones((6, 4)))


class TestQuantisationBoundary:
    def test_fp32_mode_quantizes_raw_float64(self, rng):
        a = rng.normal(size=(4, 8))
        b = rng.normal(size=(8, 4))
        got = mxu_sgemm(a, b, 0.0)
        want = mxu_sgemm(quantize(a, FP32), quantize(b, FP32), 0.0)
        np.testing.assert_array_equal(got, want)

    def test_complex_mode_quantizes(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = mxu_cgemm(a, b, 0.0)
        want = mxu_cgemm(quantize_complex(a, FP32), quantize_complex(b, FP32), 0.0)
        np.testing.assert_array_equal(got, want)


class TestAccuracyVsReference:
    def test_sgemm_close_to_fp64(self, rng):
        a = fp32_array(rng, (32, 64))
        b = fp32_array(rng, (64, 32))
        d = mxu_sgemm(a, b, 0.0)
        np.testing.assert_allclose(d, a @ b, rtol=1e-4, atol=1e-6)

    def test_cgemm_close_to_complex128(self, rng):
        a = fp32c_array(rng, (16, 32))
        b = fp32c_array(rng, (32, 16))
        d = mxu_cgemm(a, b, 0.0)
        ref = a @ b
        assert np.max(np.abs(d - ref) / np.abs(ref)) < 1e-5

    def test_tensorcore_gemm_fp16(self, rng):
        a = quantize(rng.normal(size=(16, 32)), FP16)
        b = quantize(rng.normal(size=(32, 16)), FP16)
        d = tensorcore_gemm(a, b, 0.0, MXUMode.FP16)
        np.testing.assert_allclose(d, a @ b, rtol=1e-5, atol=1e-5)

    def test_tensorcore_rejects_fp32_mode(self, rng):
        with pytest.raises(ValueError):
            tensorcore_gemm(np.zeros((2, 2)), np.zeros((2, 2)), 0.0, MXUMode.FP32)
