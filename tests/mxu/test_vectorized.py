"""Unit tests for the vectorized bit-level datapath engine."""

import numpy as np
import pytest

from repro.arith.accumulator import int_window_to_float, sequential_windowed_sum
from repro.gemm.tiled import TiledGEMM, mxu_cgemm, mxu_sgemm
from repro.mxu.bitlevel import (
    BitAccumulator,
    _round_int_scaled_to_fp32,
    bit_level_fp32_dot,
    bit_level_fp32c_dot,
    split_fp32_bits,
)
from repro.mxu.m3xu import M3XU
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import (
    BITLEVEL_ENV,
    BitLevelMXU,
    ProductFault,
    chained_vector_fp32,
    chained_vector_fp32c,
    fp32_bit_fields,
    product_slot_count,
    resolve_bitlevel_engine,
    scalar_mma_fp32,
    scalar_mma_fp32c,
    split_fp32_fields,
)
from repro.types.formats import FP32
from repro.types.quantize import quantize, quantize_complex
from repro.types.rounding import RoundingMode


def biteq(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def one_mma(a, b, c=0.0, **kw):
    """One MMA on the vector engine: the one-chunk chain (k_chunk = K)."""
    if np.iscomplexobj(a):
        return chained_vector_fp32c(a, b, c, k_chunk=a.shape[1], **kw)
    return chained_vector_fp32(a, b, c, k_chunk=np.shape(a)[-1], **kw)


def scalar_chain(a, b, c, k_chunk):
    """The per-MMA chain of the scalar oracle, ``k_chunk`` columns a step."""
    fn = scalar_mma_fp32c if np.iscomplexobj(a) else scalar_mma_fp32
    acc = c
    for k0 in range(0, a.shape[1], k_chunk):
        acc = fn(a[:, k0 : k0 + k_chunk], b[k0 : k0 + k_chunk], acc)
    return acc


def random_fp32(rng, shape, scale_span=0):
    x = rng.standard_normal(shape)
    if scale_span:
        x = x * 10.0 ** rng.integers(-scale_span, scale_span, shape)
    return quantize(x, FP32)


class TestSequentialWindowedSum:
    """The vectorized accumulator replicates BitAccumulator exactly."""

    def check(self, signs, sigs, lsbs, acc_bits=48, mode=RoundingMode.NEAREST_EVEN):
        acc = BitAccumulator(width=acc_bits, mode=mode)
        for s, sig, e in zip(signs, sigs, lsbs):
            acc.add(int(s), int(sig), int(e))
        value, window_lsb = sequential_windowed_sum(
            np.array(signs), np.array(sigs), np.array(lsbs),
            acc_bits=acc_bits, mode=mode,
        )
        assert int(value) == acc.value
        if acc.anchor is not None:
            assert int(window_lsb) == acc.anchor - acc_bits + 1
        got = int_window_to_float(value, window_lsb, FP32)
        assert biteq(got, np.float64(acc.to_float()))

    def test_random_sequences(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            sigs = rng.integers(0, 1 << 24, n)
            signs = rng.integers(0, 2, n)
            lsbs = rng.integers(-160, 120, n)
            self.check(signs, sigs, lsbs)

    def test_wide_exponent_span(self, rng):
        # Spans far beyond the 48-bit window: the sequential re-rounding
        # discipline (not a single final anchor) is what must be matched.
        for _ in range(100):
            n = int(rng.integers(2, 12))
            sigs = rng.integers(1, 1 << 24, n)
            signs = rng.integers(0, 2, n)
            lsbs = rng.integers(-200, 200, n)
            self.check(signs, sigs, lsbs)

    def test_zero_significands_skipped(self):
        self.check([0, 1, 0, 0, 1], [5, 0, 7, 0, 3], [0, 50, -60, 999, -60])

    def test_all_zero(self):
        self.check([0, 1], [0, 0], [3, -7])

    def test_toward_zero_mode(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 16))
            self.check(
                rng.integers(0, 2, n),
                rng.integers(0, 1 << 24, n),
                rng.integers(-120, 120, n),
                mode=RoundingMode.TOWARD_ZERO,
            )

    def test_batched_matches_elementwise(self, rng):
        sigs = rng.integers(0, 1 << 24, (4, 5, 9))
        signs = rng.integers(0, 2, (4, 5, 9))
        lsbs = rng.integers(-150, 150, (4, 5, 9))
        value, window = sequential_windowed_sum(signs, sigs, lsbs)
        for i in range(4):
            for j in range(5):
                v, w = sequential_windowed_sum(signs[i, j], sigs[i, j], lsbs[i, j])
                assert int(value[i, j]) == int(v)
                assert int(window[i, j]) == int(w)

    def test_validation(self):
        with pytest.raises(ValueError):
            sequential_windowed_sum(np.array(0), np.array(1), np.array(0))
        with pytest.raises(ValueError):
            sequential_windowed_sum([0], [1], [0], acc_bits=4)
        with pytest.raises(ValueError):
            sequential_windowed_sum([0], [-1], [0])


class TestIntWindowToFloat:
    def test_matches_fraction_rounding(self, rng):
        for _ in range(300):
            value = int(rng.integers(-(1 << 60), 1 << 60))
            lsb = int(rng.integers(-200, 120))
            got = int_window_to_float(np.array(value), np.array(lsb), FP32)
            want = _round_int_scaled_to_fp32(value, lsb) if value else 0.0
            assert biteq(got, np.float64(want))

    def test_overflow_to_inf(self):
        got = int_window_to_float(np.array(1 << 50), np.array(100), FP32)
        assert got == np.inf

    def test_tiny_negative_rounds_to_signed_zero(self):
        # Below half the smallest subnormal: rounds to -0.0, as the
        # Fraction reference does.
        got = int_window_to_float(np.array(-1), np.array(-200), FP32)
        assert got == 0.0 and np.signbit(got)

    def test_exact_zero_is_positive(self):
        got = int_window_to_float(np.array(0), np.array(-200), FP32)
        assert got == 0.0 and not np.signbit(got)


class TestFieldHelpers:
    def test_matches_scalar_split(self, rng):
        pool = np.concatenate([
            random_fp32(rng, 64, scale_span=9),
            quantize(np.array([0.0, -0.0, 1e-44, -1e-44, 1.17e-38, 3.4e38, -3.4e38, 1.0]), FP32),
        ])
        sign, biased, hi, lo = split_fp32_fields(pool)
        for i, x in enumerate(pool):
            h, lw = split_fp32_bits(float(x))
            assert (sign[i], biased[i], hi[i]) == (h.sign, h.biased_exp, h.significand)
            assert lo[i] == lw.significand

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            fp32_bit_fields(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            fp32_bit_fields(np.array([np.nan]))

    def test_rejects_unrepresentable(self):
        with pytest.raises(ValueError):
            fp32_bit_fields(np.array([1.0 + 2.0**-40]))

    def test_scalar_shape(self):
        sign, biased, mant = fp32_bit_fields(np.float64(-1.5))
        assert sign.shape == () and int(sign) == 1 and int(biased) == 127


class TestEngineResolution:
    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(BITLEVEL_ENV, raising=False)
        assert resolve_bitlevel_engine() == "vector"

    def test_env_selects_scalar(self, monkeypatch):
        monkeypatch.setenv(BITLEVEL_ENV, "scalar")
        assert resolve_bitlevel_engine() == "scalar"
        assert BitLevelMXU().engine == "scalar"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BITLEVEL_ENV, "scalar")
        assert resolve_bitlevel_engine("vector") == "vector"

    def test_unknown_engine_raises(self, monkeypatch):
        monkeypatch.setenv(BITLEVEL_ENV, "turbo")
        with pytest.raises(ValueError):
            resolve_bitlevel_engine()
        with pytest.raises(ValueError):
            BitLevelMXU(engine="blas")


class TestVectorEnginesMatchOracle:
    def test_fp32_matches_bitlevel_dot(self, rng):
        a = random_fp32(rng, (5, 7), scale_span=6)
        b = random_fp32(rng, (7, 4), scale_span=6)
        c = random_fp32(rng, (5, 4))
        ref = np.array([
            [bit_level_fp32_dot(a[m], b[:, n], float(c[m, n])) for n in range(4)]
            for m in range(5)
        ])
        assert biteq(one_mma(a, b, c), ref)
        assert biteq(scalar_mma_fp32(a, b, c), ref)

    def test_fp32c_matches_bitlevel_dot(self, rng):
        a = quantize_complex(
            rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)), FP32)
        b = quantize_complex(
            rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)), FP32)
        c = quantize_complex(
            rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)), FP32)
        ref = np.array([
            [bit_level_fp32c_dot(a[m], b[:, n], complex(c[m, n])) for n in range(3)]
            for m in range(4)
        ])
        assert biteq(one_mma(a, b, c), ref)
        assert biteq(scalar_mma_fp32c(a, b, c), ref)

    def test_shape_validation(self, rng):
        a = random_fp32(rng, (3, 4))
        with pytest.raises(ValueError):
            one_mma(a, random_fp32(rng, (5, 2)), 0.0)
        with pytest.raises(ValueError):
            one_mma(a[0], random_fp32(rng, (4, 2)), 0.0)


class TestProductFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProductFault(slot=0, element=(0, 0), bit=24)
        with pytest.raises(ValueError):
            ProductFault(slot=-1, element=(0, 0), bit=0)

    def test_slot_counts(self):
        assert product_slot_count(MXUMode.FP32, 4) == 16
        assert product_slot_count(MXUMode.FP32C, 2) == 32
        with pytest.raises(ValueError):
            product_slot_count(MXUMode.FP16, 4)

    def test_out_of_range_rejected(self, rng):
        a, b = random_fp32(rng, (2, 3)), random_fp32(rng, (3, 2))
        with pytest.raises(ValueError):
            one_mma(a, b, 0.0, product_fault=ProductFault(12, (0, 0), 0))
        with pytest.raises(ValueError):
            one_mma(a, b, 0.0, product_fault=ProductFault(0, (2, 0), 0))

    def test_fp32_engines_agree_on_fault(self, rng):
        a, b = random_fp32(rng, (3, 4), 4), random_fp32(rng, (4, 3), 4)
        clean = one_mma(a, b, 0.0)
        changed = 0
        for slot in range(product_slot_count(MXUMode.FP32, 4)):
            pf = ProductFault(slot=slot, element=(1, 2), bit=int(rng.integers(24)))
            v = one_mma(a, b, 0.0, product_fault=pf)
            s = scalar_mma_fp32(a, b, 0.0, product_fault=pf)
            assert biteq(v, s)
            changed += not biteq(v, clean)
        assert changed > 0  # the upset is observable, not a no-op

    def test_fp32c_engines_agree_on_fault(self, rng):
        a = quantize_complex(
            rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)), FP32)
        b = quantize_complex(
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)), FP32)
        for slot in range(0, product_slot_count(MXUMode.FP32C, 3), 5):
            pf = ProductFault(slot=slot, element=(0, 1), bit=int(rng.integers(24)))
            assert biteq(
                one_mma(a, b, 0.0, product_fault=pf),
                scalar_mma_fp32c(a, b, 0.0, product_fault=pf),
            )

    def test_fault_only_hits_named_element(self, rng):
        a, b = random_fp32(rng, (3, 4), 2), random_fp32(rng, (4, 3), 2)
        clean = one_mma(a, b, 0.0)
        pf = ProductFault(slot=3, element=(2, 1), bit=23)
        dirty = one_mma(a, b, 0.0, product_fault=pf)
        mask = np.ones_like(clean, dtype=bool)
        mask[2, 1] = False
        assert biteq(dirty[mask], clean[mask])


class TestBitLevelMXU:
    def test_rejects_unsupported_modes(self):
        unit = BitLevelMXU()
        a = np.ones((2, 2))
        for mode in (MXUMode.FP16, MXUMode.BF16, MXUMode.TF32, MXUMode.FP64):
            with pytest.raises(ValueError):
                unit.mma(a, a, 0.0, mode)

    def test_quantizes_inputs(self, rng):
        # Raw float64 operands are quantised to FP32 on the way in, like
        # the value-level M3XU — no representability error escapes.
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = BitLevelMXU().mma(a, b, 0.0, MXUMode.FP32)
        aq, bq = quantize(a, FP32), quantize(b, FP32)
        assert biteq(got, scalar_mma_fp32(aq, bq, 0.0))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_k0_engines_agree(self, rng, dtype):
        # An MMA over no products rounds C through the window on both
        # engines; a K mismatch and a product fault (no slot exists) are
        # rejected by both.
        mode = MXUMode.FP32C if dtype is np.complex128 else MXUMode.FP32
        engines = [BitLevelMXU(engine="vector"), BitLevelMXU(engine="scalar")]
        a, b = np.zeros((3, 0), dtype=dtype), np.zeros((0, 2), dtype=dtype)
        c = rng.standard_normal((3, 2)).astype(dtype)
        vec, sca = (e.mma(a, b, c, mode) for e in engines)
        assert biteq(vec, sca)
        for unit in engines:
            with pytest.raises(ValueError, match="K mismatch"):
                unit.mma(a, np.ones((2, 2), dtype=dtype), c, mode)
            with pytest.raises(ValueError, match="out of range"):
                unit.mma(a, b, c, mode, product_fault=ProductFault(0, (0, 0), 0))

    def test_tiled_gemm_fused_false_swaps_engine(self, rng):
        g = TiledGEMM(M3XU(), MXUMode.FP32, fused=False)
        assert isinstance(g.mxu, BitLevelMXU)
        with pytest.raises(ValueError):
            TiledGEMM(M3XU(), MXUMode.FP16, fused=False).run(
                np.ones((2, 2)), np.ones((2, 2)))

    def test_fused_false_rejects_foreign_mxu(self):
        from repro.mxu.baseline import TensorCoreMXU

        with pytest.raises(ValueError):
            TiledGEMM(TensorCoreMXU(), MXUMode.FP32, fused=False)

    def test_sgemm_chunked_matches_chained_oracle(self, rng):
        a, b = random_fp32(rng, (4, 10), 3), random_fp32(rng, (10, 3), 3)
        got = mxu_sgemm(a, b, fused=False)
        want = np.zeros((4, 3))
        for m in range(4):
            for n in range(3):
                acc = 0.0
                for k0 in range(0, 10, 4):  # M3XU FP32 instruction K = 4
                    acc = bit_level_fp32_dot(a[m, k0:k0 + 4], b[k0:k0 + 4, n], acc)
                want[m, n] = acc
        assert biteq(got, want)

    def test_cgemm_plan_and_legacy_paths_identical(self, rng):
        a = quantize_complex(
            rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)), FP32)
        b = quantize_complex(
            rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)), FP32)
        planned = TiledGEMM(BitLevelMXU(), MXUMode.FP32C).run(a, b)
        # The reference: the scalar oracle's per-MMA chain (FP32C K = 2).
        legacy = scalar_chain(a, b, np.zeros((3, 4), dtype=np.complex128), 2)
        assert biteq(planned, legacy)
        assert biteq(planned, mxu_cgemm(a, b, fused=False))

    def test_abft_guarded_bitlevel_identical(self, rng):
        a, b = random_fp32(rng, (6, 9), 2), random_fp32(rng, (9, 5), 2)
        plain = mxu_sgemm(a, b, fused=False)
        g = TiledGEMM(M3XU(), MXUMode.FP32, abft=True, fused=False)
        assert biteq(g.run(a, b), plain)
        assert g.abft_report is not None and not g.abft_report.detected
