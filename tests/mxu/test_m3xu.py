"""The core claim: M3XU's multi-step MMA is exact FP32 / FP32C arithmetic."""

import numpy as np
import pytest

from repro.arith import exact_dot
from repro.mxu import M3XU, M3XU_CONFIG, M3XU_PIPELINED_CONFIG, MXUMode
from repro.types import FP32, FP64, quantize, quantize_complex
from tests.conftest import fp32_array, fp32c_array


@pytest.fixture
def unit() -> M3XU:
    return M3XU()


class TestFp32Mma:
    def test_correctly_rounded_vs_exact(self, rng, unit):
        m, n, k = 8, 4, 4
        a = fp32_array(rng, (m, k))
        b = fp32_array(rng, (k, n))
        c = fp32_array(rng, (m, n))
        d = unit.mma_fp32(a, b, c)
        for i in range(m):
            for j in range(n):
                ref = exact_dot(list(a[i]), list(b[:, j]), float(c[i, j]), FP32)
                assert d[i, j] == ref, (i, j)

    def test_wide_dynamic_range(self, rng, unit):
        a = fp32_array(rng, (4, 4)) * np.float64(2.0) ** rng.integers(-60, 60, (4, 4))
        a = quantize(a, FP32)
        b = fp32_array(rng, (4, 4))
        d = unit.mma_fp32(a, b, 0.0)
        for i in range(4):
            for j in range(4):
                assert d[i, j] == exact_dot(list(a[i]), list(b[:, j]), 0.0, FP32)

    def test_cancellation_exact(self, unit):
        # a*b terms that cancel to the last bit: the 48-bit accumulator
        # must preserve what per-product FP32 rounding would destroy.
        eps = 2.0**-23
        a = np.array([[1.0 + eps, -1.0]])
        b = np.array([[1.0], [1.0]])
        d = unit.mma_fp32(a, b, 0.0)
        assert d[0, 0] == eps

    def test_at_least_as_accurate_as_simt_chain(self, rng, unit):
        from repro.arith import sequential_fma_dot

        k = 4
        worse = 0
        for _ in range(100):
            a = fp32_array(rng, (1, k))
            b = fp32_array(rng, (k, 1))
            exact = exact_dot(list(a[0]), list(b[:, 0]), 0.0, FP64)
            m3 = float(unit.mma_fp32(a, b, 0.0)[0, 0])
            simt = sequential_fma_dot(list(a[0]), list(b[:, 0]), 0.0, FP32)
            if abs(m3 - exact) > abs(simt - exact):
                worse += 1
        assert worse == 0  # correctly rounded can never be beaten

    def test_batched(self, rng, unit):
        a = fp32_array(rng, (3, 8, 4))
        b = fp32_array(rng, (3, 4, 4))
        d = unit.mma_fp32(a, b, 0.0)
        assert d.shape == (3, 8, 4)
        d0 = unit.mma_fp32(a[0], b[0], 0.0)
        np.testing.assert_array_equal(d[0], d0)

    def test_result_fp32_representable(self, rng, unit):
        from repro.types import representable

        d = unit.mma_fp32(fp32_array(rng, (8, 4)), fp32_array(rng, (4, 4)), 0.0)
        assert np.all(representable(d, FP32))

    def test_zero_inputs(self, unit):
        d = unit.mma_fp32(np.zeros((2, 4)), np.zeros((4, 2)), 0.0)
        np.testing.assert_array_equal(d, 0.0)

    def test_subnormal_operands(self, unit):
        a = quantize(np.full((1, 2), 2.0**-130), FP32)
        b = quantize(np.full((2, 1), 2.0), FP32)
        d = unit.mma_fp32(a, b, 0.0)
        assert d[0, 0] == exact_dot(list(a[0]), list(b[:, 0]), 0.0, FP32)

    def test_k_mismatch_raises(self, rng, unit):
        with pytest.raises(ValueError):
            unit.mma_fp32(np.zeros((2, 3)), np.zeros((4, 2)), 0.0)


class TestFp32cMma:
    def test_correctly_rounded_real_and_imag(self, rng, unit):
        m, n, k = 8, 4, 2
        a = fp32c_array(rng, (m, k))
        b = fp32c_array(rng, (k, n))
        c = fp32c_array(rng, (m, n))
        d = unit.mma_fp32c(a, b, c)
        for i in range(m):
            for j in range(n):
                # Eq. 9: real = sum aR*bR - aI*bI + cR (one accumulation).
                re = exact_dot(
                    list(a[i].real) + list(-a[i].imag),
                    list(b[:, j].real) + list(b[:, j].imag),
                    float(c[i, j].real),
                    FP32,
                )
                im = exact_dot(
                    list(a[i].real) + list(a[i].imag),
                    list(b[:, j].imag) + list(b[:, j].real),
                    float(c[i, j].imag),
                    FP32,
                )
                assert d[i, j].real == re and d[i, j].imag == im

    def test_sign_flip_subtracts_imaginary_products(self, unit):
        # (0 + 1i) * (0 + 1i) = -1: pure imaginary inputs exercise exactly
        # the sign-flip datapath of Fig. 3(c).
        a = np.array([[1j, 0]])
        b = np.array([[1j], [0j]])
        d = unit.mma_fp32c(a, b, 0.0)
        assert d[0, 0] == -1.0 + 0.0j

    def test_pure_real_matches_fp32_mode(self, rng, unit):
        ar = fp32_array(rng, (4, 2))
        br = fp32_array(rng, (2, 4))
        dc = unit.mma_fp32c(ar.astype(complex), br.astype(complex), 0.0)
        dr = unit.mma_fp32(ar, br, 0.0)
        np.testing.assert_array_equal(dc.real, dr)
        np.testing.assert_array_equal(dc.imag, 0.0)

    def test_components_fp32_representable(self, rng, unit):
        from repro.types import representable

        d = unit.mma_fp32c(fp32c_array(rng, (4, 2)), fp32c_array(rng, (2, 4)), 0.0)
        assert np.all(representable(d.real, FP32))
        assert np.all(representable(d.imag, FP32))


class TestOperandContract:
    """FP32 and FP32C MMAs take FP32 register values and nothing else."""

    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
    @pytest.mark.parametrize("value", [0.1, 1e39])
    @pytest.mark.parametrize("operand", ["a", "b"])
    def test_rejects_non_fp32_operands(self, unit, mode, value, operand):
        dtype = np.complex128 if mode is MXUMode.FP32C else np.float64
        a, b = np.ones((2, 3), dtype=dtype), np.ones((3, 2), dtype=dtype)
        (a if operand == "a" else b)[1, 1] = value
        with pytest.raises(ValueError, match="not representable in FP32"):
            unit.mma(a, b, 0.0, mode)

    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0**-140])
    def test_accepts_specials_and_subnormals(self, unit, mode, value):
        # NaN, the infinities and subnormals are all FP32 values.
        dtype = np.complex128 if mode is MXUMode.FP32C else np.float64
        a = np.array([[value, 1.0]], dtype=dtype)
        b = np.array([[1.0], [value]], dtype=dtype)
        assert unit.mma(a, b, 0.0, mode).shape == (1, 1)


class TestFp64Mode:
    def test_near_fp64_accuracy(self, rng, unit):
        a = rng.normal(size=(8, 2))
        b = rng.normal(size=(2, 4))
        c = rng.normal(size=(8, 4))
        d = unit.mma_fp64(a, b, c)
        ref = a @ b + c
        np.testing.assert_allclose(d, ref, rtol=2.0**-48)

    def test_much_better_than_fp32(self, rng, unit):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(2, 4))
        ref = a @ b
        d64 = unit.mma_fp64(a, b, 0.0)
        d32 = unit.mma_fp32(quantize(a, FP32), quantize(b, FP32), 0.0)
        assert np.max(np.abs(d64 - ref)) < np.max(np.abs(d32 - ref))


class TestModesAndConfig:
    def test_supports_all_modes(self, unit):
        assert unit.supported_modes() == M3XU_CONFIG.modes
        for mode in MXUMode:
            assert unit.config.supports(mode)

    def test_step_counts(self, unit):
        assert unit.steps(MXUMode.FP16) == 1
        assert unit.steps(MXUMode.FP32) == 2
        assert unit.steps(MXUMode.FP32C) == 4
        assert unit.steps(MXUMode.FP64) == 4

    def test_pipelined_numerically_identical(self, rng):
        a = fp32_array(rng, (8, 4))
        b = fp32_array(rng, (4, 4))
        d1 = M3XU(M3XU_CONFIG).mma_fp32(a, b, 0.0)
        d2 = M3XU(M3XU_PIPELINED_CONFIG).mma_fp32(a, b, 0.0)
        np.testing.assert_array_equal(d1, d2)

    def test_backward_compatible_fp16(self, rng, unit):
        # "The same M3XU remains the support of the original functions."
        from repro.mxu import TensorCoreMXU
        from repro.types import FP16

        a = quantize(rng.normal(size=(8, 8)), FP16)
        b = quantize(rng.normal(size=(8, 4)), FP16)
        c = fp32_array(rng, (8, 4))
        ours = unit.mma(a, b, c, MXUMode.FP16)
        # M3XU's wider RNE accumulator is at least as accurate as the
        # baseline's truncating one; both are valid FP16 MMAs.
        ref = np.float32(a.astype(np.float64) @ b.astype(np.float64) + c)
        np.testing.assert_allclose(ours, ref, rtol=1e-6)

    def test_output_formats(self, unit):
        assert unit.output_format(MXUMode.FP32) is FP32
        assert unit.output_format(MXUMode.FP64) is FP64
