"""The bit-level (RTL-fidelity) datapath vs the value-level model."""

import numpy as np
import pytest

from repro.arith import exact_dot
from repro.mxu import M3XU, BitAccumulator, MXUMode, bit_level_chain, split_fp32_fields
from repro.mxu.vectorized import _SCHEDULE
from repro.types import FP32, quantize
from repro.types.rounding import RoundingMode


def dot(a, b, c=0.0, mode=MXUMode.FP32, **kw):
    """One dot product through the walker: a 1x1 single-MMA chain."""
    out = bit_level_chain(np.asarray(a)[None, :], np.asarray(b)[:, None], c, mode, **kw)
    return out[0, 0].item()


class TestSliceWiring:
    def test_one_point_five(self):
        # 1.5 = sign 0, exp 127, mantissa 0x400000.
        sign, biased, hi, lo = split_fp32_fields(np.array([1.5]))
        assert sign[0] == 0 and biased[0] == 127
        assert hi[0] == 0b110000000000  # hidden 1 + m[22:12]
        assert lo[0] == 0

    def test_low_bits_land_in_low_slice(self):
        x = float(np.float32(1.0 + 2.0**-23))  # mantissa LSB set
        _, _, hi, lo = split_fp32_fields(np.array([x]))
        assert lo[0] == 1
        assert hi[0] == 1 << 11

    def test_exponent_shared(self, rng):
        # Both slices carry the operand's sign and exponent fields verbatim.
        v = quantize(rng.normal(size=50) * 1e3, FP32)
        sign, biased, _, _ = split_fp32_fields(v)
        bits = v.astype(np.float32).view(np.uint32)
        assert np.array_equal(sign, bits >> 31)
        assert np.array_equal(biased, (bits >> 23) & 0xFF)

    def test_subnormal_no_hidden_bit(self):
        _, biased, hi, _ = split_fp32_fields(np.array([2.0**-140]))
        assert biased[0] == 0
        assert (hi[0] >> 11) == 0  # no hidden 1

    def test_values_reconstruct(self, rng):
        specials = [0.0, -0.0, 1e-44, -1e-44, 1.17e-38, 3.4e38, -3.4e38, 1.0]
        v = quantize(
            np.concatenate([rng.normal(size=100) * 10.0 ** rng.uniform(-20, 20, 100), specials]),
            FP32,
        )
        sign, biased, hi, lo = split_fp32_fields(v)
        e = np.where(biased > 0, biased - 127, -126)
        recon = (-1.0) ** sign * (hi * 2.0 ** (e - 11) + lo * 2.0 ** (e - 23))
        assert np.array_equal(recon, v)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            split_fp32_fields(np.array([np.inf]))


class TestBitAccumulator:
    def test_simple_sum(self):
        acc = BitAccumulator(width=48)
        acc.add(0, 3, 0)
        acc.add(0, 5, 0)
        assert acc.to_float() == 8.0

    def test_subtraction(self):
        acc = BitAccumulator(width=48)
        acc.add(0, 10, 0)
        acc.add(1, 3, 0)
        assert acc.to_float() == 7.0

    def test_weighted_add(self):
        acc = BitAccumulator(width=48)
        acc.add(0, 1, 10)  # 1024
        acc.add(0, 1, 0)   # 1
        assert acc.to_float() == 1025.0

    def test_window_drops_far_low_bits(self):
        acc = BitAccumulator(width=16)
        acc.add(0, 1, 0)
        acc.add(0, 1, -40)  # far below a 16-bit window anchored at 2^0
        assert acc.to_float() == 1.0

    def test_48_bit_window_holds_m3xu_span(self):
        # H*H at 2^24 relative and L*L at 2^0 relative: 48 bits exactly.
        acc = BitAccumulator(width=48)
        acc.add(0, 1, 24)
        acc.add(0, 1, 0)
        assert acc.to_float() == float(np.float32(2.0**24 + 1.0))

    def test_zero_contribution_ignored(self):
        acc = BitAccumulator(width=48)
        acc.add(0, 0, 5)
        assert acc.to_float() == 0.0

    def test_width_validation(self):
        with pytest.raises(ValueError):
            BitAccumulator(width=4)

    def test_truncation_mode(self):
        acc = BitAccumulator(width=8, mode=RoundingMode.TOWARD_ZERO)
        acc.add(0, 255, 0)
        acc.add(0, 3, -4)  # below the window LSB -> truncated away
        assert acc.to_float() == 255.0


class TestCrossValidation:
    def test_matches_value_level_and_exact(self, rng):
        unit = M3XU()
        for _ in range(40):
            k = int(rng.integers(1, 9))
            a = quantize(rng.normal(size=k) * 10.0 ** rng.uniform(-8, 8), FP32)
            b = quantize(rng.normal(size=k) * 10.0 ** rng.uniform(-8, 8), FP32)
            c = float(quantize(np.array(rng.normal()), FP32))
            bit = dot(a, b, c)
            val = float(unit.mma_fp32(a.reshape(1, -1), b.reshape(-1, 1), c)[0, 0])
            ref = exact_dot(list(a), list(b), c, FP32)
            assert bit == val == ref

    def test_cancellation(self):
        eps = 2.0**-23
        got = dot(np.array([1.0 + eps, -1.0]), np.array([1.0, 1.0]))
        assert got == eps

    def test_subnormal_operands(self):
        a = np.array([2.0**-130, 2.0**-149])
        b = np.array([4.0, 8.0])
        ref = exact_dot(list(a), list(b), 0.0, FP32)
        assert dot(a, b) == ref

    def test_narrow_accumulator_degrades(self, rng):
        # With a 24-bit window the datapath must lose bits a 48-bit one
        # keeps — the Observation-2 motivation for extending accumulators.
        a = quantize(np.array([1.0 + 2.0**-12, 2.0**-20]), FP32)
        b = quantize(np.array([1.0 + 2.0**-12, 1.0]), FP32)
        ref = exact_dot(list(a), list(b), 0.0, FP32)
        assert dot(a, b, acc_bits=48) == ref
        assert dot(a, b, acc_bits=20) != ref

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dot(np.ones(3), np.ones(4))


class TestComplexBitLevel:
    def test_matches_value_level(self, rng):
        from repro.types import quantize_complex

        unit = M3XU()
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a = quantize_complex(rng.normal(size=k) + 1j * rng.normal(size=k), FP32)
            b = quantize_complex(rng.normal(size=k) + 1j * rng.normal(size=k), FP32)
            c = complex(quantize_complex(np.array(rng.normal() + 1j * rng.normal()), FP32))
            bit = dot(a, b, c, MXUMode.FP32C)
            val = complex(unit.mma_fp32c(a.reshape(1, -1), b.reshape(-1, 1), c)[0, 0])
            assert bit == val

    def test_i_times_i_is_minus_one(self):
        got = dot(np.array([1j]), np.array([1j]), mode=MXUMode.FP32C)
        assert got == -1.0 + 0.0j

    def test_pure_real_reduces_to_fp32_path(self, rng):
        from tests.conftest import fp32_array

        # FP32 is the rr pairing of FP32C's schedule (Fig. 3(c), Eq. 9).
        assert _SCHEDULE[MXUMode.FP32] == _SCHEDULE[MXUMode.FP32C][:1] == ((0, 0, 0, "real"),)
        a = fp32_array(rng, (4,))
        b = fp32_array(rng, (4,))
        got = dot(a.astype(complex), b.astype(complex), mode=MXUMode.FP32C)
        assert got.imag == 0.0
        assert got.real == dot(a, b)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dot(np.ones(2, dtype=complex), np.ones(3, dtype=complex), mode=MXUMode.FP32C)
