"""Segmented exact reduction == sequential running-anchor oracle.

The blocked kernels in :mod:`repro.arith.accumulator` replace the slot
walk of :func:`sequential_windowed_sum` with a segmented reduction whose
step count is the number of anchor raises; the chained GEMM kernel in
:mod:`repro.mxu.vectorized` additionally folds the C operand of every
K-chunk through a two-slot merge. All of them claim *bit-identity* with
the sequential discipline. This suite holds them to it on the
trajectories where segmented algorithms classically go wrong: anchor
raises exactly at block boundaries, long zero runs, sign cancellation
down to the window LSB, midpoint ties under both rounding modes, and
hypothesis-driven random sweeps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arith.accumulator import (
    _ANCHOR_SENTINEL,
    segmented_windowed_sum,
    segmented_windowed_sum_f32,
    sequential_windowed_sum,
)
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import (
    ProductFault,
    chained_vector_fp32,
    chained_vector_fp32c,
    product_slot_count,
    scalar_mma_fp32,
    scalar_mma_fp32c,
)
from repro.types.formats import FP32
from repro.types.quantize import quantize, quantize_complex
from repro.types.rounding import RoundingMode

MODES = [RoundingMode.NEAREST_EVEN, RoundingMode.TOWARD_ZERO]


def biteq(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_segmented_matches(sign, sig, lsb, acc_bits, mode):
    """segmented == sequential on (value, window), bit for bit."""
    want_v, want_w = sequential_windowed_sum(sign, sig, lsb, acc_bits, mode)
    got_v, got_w = segmented_windowed_sum(sign, sig, lsb, acc_bits, mode)
    assert biteq(got_v, want_v), f"value diverged (acc_bits={acc_bits}, {mode})"
    assert biteq(got_w, want_w), f"window diverged (acc_bits={acc_bits}, {mode})"


def assert_f32_matches(signed_sig, lsb, acc_bits, mode):
    """packed float32 kernel == sequential on the unpacked triple."""
    sig_i = np.abs(signed_sig).astype(np.int64)
    sign_i = np.signbit(signed_sig).astype(np.int8)
    want_v, want_w = sequential_windowed_sum(sign_i, sig_i, lsb, acc_bits, mode)
    got_v, got_w = segmented_windowed_sum_f32(
        signed_sig, lsb.astype(np.int16), acc_bits, mode
    )
    assert biteq(got_v, want_v)
    assert biteq(got_w, want_w)


class TestAdversarialTrajectories:
    """Handcrafted anchor trajectories targeting the segment seams."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("acc_bits", [12, 27, 48])
    def test_anchor_raise_at_every_slot(self, mode, acc_bits):
        # Strictly ascending MSBs: every slot is its own segment.
        slots = 24
        sig = np.full((3, slots), 5, dtype=np.int64)
        lsb = (np.arange(slots, dtype=np.int64) * 7)[None, :] + np.array(
            [[0], [3], [11]], dtype=np.int64
        )
        sign = np.zeros_like(sig)
        sign[1, ::2] = 1
        assert_segmented_matches(sign, sig, lsb, acc_bits, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_descending_then_spike(self, mode):
        # One raise at slot 0, a long constant-anchor run of below-window
        # addends, then a late spike that re-rounds the whole partial.
        sig = np.array([[1 << 20] + [3] * 14 + [1 << 22]], dtype=np.int64)
        lsb = np.array([[40] + list(range(-20, -6)) + [90]], dtype=np.int64)
        sign = np.array([[0] + [1, 0] * 7 + [0]], dtype=np.int64)
        for acc_bits in (12, 27, 48):
            assert_segmented_matches(sign, sig, lsb, acc_bits, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_runs_never_move_the_anchor(self, mode):
        # Zero slots between raises, leading zeros, and an all-zero row
        # (whose window must come back as the sentinel convention).
        sig = np.array(
            [
                [0, 0, 7, 0, 0, 0, 9, 0, 11, 0],
                [0] * 10,
                [5, 0, 0, 0, 0, 0, 0, 0, 0, 13],
            ],
            dtype=np.int64,
        )
        lsb = np.array(
            [
                [50, 50, 0, -3, 99, -99, 12, 7, 24, 0],
                [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                [-5, 88, 88, 88, 88, 88, 88, 88, 88, 30],
            ],
            dtype=np.int64,
        )
        sign = (sig % 3 == 2).astype(np.int64)
        assert_segmented_matches(sign, sig, lsb, 48, mode)
        _, got_w = segmented_windowed_sum(sign, sig, lsb, 48, mode)
        assert got_w[1] == _ANCHOR_SENTINEL - 47

    @pytest.mark.parametrize("mode", MODES)
    def test_sign_cancellation_to_window_lsb(self, mode):
        # Two large addends cancel to a single ULP at the window bottom;
        # the next raise must re-round that residue, not the full values.
        acc_bits = 48
        big = (1 << 40) + 1
        sig = np.array([[big, big - 2, 1 << 20, 3]], dtype=np.int64)
        lsb = np.array([[0, 0, 0, 60]], dtype=np.int64)
        sign = np.array([[0, 1, 1, 0]], dtype=np.int64)
        assert_segmented_matches(sign, sig, lsb, acc_bits, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_midpoint_ties_at_anchor_raise(self, mode):
        # Partial sums sitting exactly on rounding midpoints when the
        # anchor raise shifts them — RNE and RTZ must both match.
        sig = np.array([[3, 1, 1], [1, 2, 1], [5, 3, 1]], dtype=np.int64)
        lsb = np.array([[0, 1, 10], [0, 1, 12], [1, 0, 9]], dtype=np.int64)
        sign = np.zeros_like(sig)
        assert_segmented_matches(sign, sig, lsb, 12, mode)

    def test_single_slot_and_scalar_row(self):
        sig = np.array([[42]], dtype=np.int64)
        lsb = np.array([[-7]], dtype=np.int64)
        assert_segmented_matches(
            np.array([[1]]), sig, lsb, 48, RoundingMode.NEAREST_EVEN
        )

    def test_empty_slot_axis(self):
        v, w = segmented_windowed_sum(
            np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((2, 0)), 48,
            RoundingMode.NEAREST_EVEN,
        )
        assert v.shape == (2,) and np.all(v == 0)
        assert np.all(w == _ANCHOR_SENTINEL - 47)


class TestHypothesisSweeps:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 5),
        slots=st.integers(1, 33),
        acc_bits=st.sampled_from([12, 27, 48]),
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.floats(0.0, 0.9),
    )
    def test_random_trajectories(self, rows, slots, acc_bits, mode, seed, zero_frac):
        rng = np.random.default_rng(seed)
        sig = rng.integers(0, 1 << 24, size=(rows, slots))
        sig[rng.random((rows, slots)) < zero_frac] = 0
        lsb = rng.integers(-300, 300, size=(rows, slots))
        sign = rng.integers(0, 2, size=(rows, slots))
        assert_segmented_matches(sign, sig, lsb, acc_bits, mode)

    @settings(max_examples=60, deadline=None)
    @given(
        slots=st.integers(1, 33),
        acc_bits=st.sampled_from([12, 27, 48]),
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_f32_packed(self, slots, acc_bits, mode, seed):
        # The packed front refuses configurations whose segment totals
        # could exceed float64's exact-integer range.
        assume(slots * (1 << acc_bits) <= (1 << 53))
        rng = np.random.default_rng(seed)
        mag = rng.integers(0, 1 << 24, size=(4, slots))
        mag[rng.random((4, slots)) < 0.3] = 0
        sgn = rng.choice([-1.0, 1.0], size=(4, slots))
        signed = (mag * sgn).astype(np.float32)
        lsb = rng.integers(-1000, 1000, size=(4, slots))
        assert_f32_matches(signed, lsb, acc_bits, mode)

    @settings(max_examples=40, deadline=None)
    @given(
        slots=st.integers(1, 20),
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clustered_exponents_force_block_boundary_raises(self, slots, mode, seed):
        # Exponents drawn from a tiny set so raises land on repeated
        # values (rescale == 0 runs) and exact block boundaries.
        rng = np.random.default_rng(seed)
        sig = rng.integers(0, 1 << 12, size=(6, slots))
        lsb = rng.choice([-24, 0, 0, 0, 24], size=(6, slots))
        sign = rng.integers(0, 2, size=(6, slots))
        assert_segmented_matches(sign, sig, lsb, 48, mode)

    def test_negative_zero_f32_is_a_zero_slot(self):
        signed = np.array([[-0.0, 3.0, -5.0, 0.0]], dtype=np.float32)
        lsb = np.array([[100, 0, 1, -100]], dtype=np.int64)
        for mode in MODES:
            assert_f32_matches(signed, lsb, 48, mode)


def _random_fault(rng, mode, k, m, n):
    """A product fault anywhere in a K-chain of *k* columns."""
    return ProductFault(
        slot=int(rng.integers(product_slot_count(mode, k))),
        element=(int(rng.integers(m)), int(rng.integers(n))),
        bit=int(rng.integers(24)),
    )


def _fp32_with_unit_slices(rng, shape):
    """FP32 values, a third of them small integers whose low 12-bit slice
    is zero (a zero lane product a product fault may land in)."""
    x = quantize(rng.standard_normal(shape), FP32)
    ints = rng.integers(-4, 5, shape).astype(np.float64)
    return np.where(rng.random(shape) < 1 / 3, ints, x)


class TestChainedKernel:
    """chained_vector_fp32(c) == the scalar oracle's per-chunk MMA chain."""

    @staticmethod
    def _per_chunk(a, b, c, k_chunk, acc_bits, mode, fault=None):
        """The scalar oracle's per-MMA chain. *fault* addresses a product
        slot over the whole chain and is injected into the MMA holding it."""
        fp32c = np.iscomplexobj(a)
        fn = scalar_mma_fp32c if fp32c else scalar_mma_fp32
        per_k = product_slot_count(MXUMode.FP32C if fp32c else MXUMode.FP32, 1)
        acc = np.broadcast_to(
            np.asarray(c, dtype=np.complex128 if fp32c else np.float64),
            (a.shape[0], b.shape[1]),
        )
        for k0 in range(0, a.shape[1], k_chunk):
            pf = None
            if fault is not None and k0 <= fault.slot // per_k < k0 + k_chunk:
                pf = ProductFault(fault.slot - k0 * per_k, fault.element, fault.bit)
            acc = fn(
                a[:, k0 : k0 + k_chunk],
                b[k0 : k0 + k_chunk, :],
                acc,
                acc_bits=acc_bits,
                rounding=mode,
                product_fault=pf,
            )
        return np.asarray(acc)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 9),
        k=st.integers(1, 23),
        n=st.integers(1, 9),
        k_chunk=st.sampled_from([1, 3, 4, 7]),
        acc_bits=st.sampled_from([12, 27, 48]),
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 2**32 - 1),
        faulty=st.booleans(),
    )
    def test_matches_per_chunk_chain(
        self, m, k, n, k_chunk, acc_bits, mode, seed, faulty
    ):
        rng = np.random.default_rng(seed)
        a = _fp32_with_unit_slices(rng, (m, k))
        b = _fp32_with_unit_slices(rng, (k, n))
        c = quantize(rng.standard_normal((m, n)), FP32)
        fault = _random_fault(rng, MXUMode.FP32, k, m, n) if faulty else None
        want = self._per_chunk(a, b, c, k_chunk, acc_bits, mode, fault)
        got = chained_vector_fp32(
            a, b, c, k_chunk=k_chunk, acc_bits=acc_bits, rounding=mode,
            block=3, product_fault=fault,
        )
        assert biteq(got, want)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 5),
        k=st.integers(1, 11),
        n=st.integers(1, 5),
        k_chunk=st.sampled_from([1, 2, 3, 4]),
        acc_bits=st.sampled_from([27, 48]),
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 2**32 - 1),
        faulty=st.booleans(),
    )
    def test_fp32c_matches_per_chunk_chain(
        self, m, k, n, k_chunk, acc_bits, mode, seed, faulty
    ):
        rng = np.random.default_rng(seed)
        a = quantize_complex(
            _fp32_with_unit_slices(rng, (m, k))
            + 1j * _fp32_with_unit_slices(rng, (m, k)),
            FP32,
        )
        b = quantize_complex(
            _fp32_with_unit_slices(rng, (k, n))
            + 1j * _fp32_with_unit_slices(rng, (k, n)),
            FP32,
        )
        c = quantize_complex(
            rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)), FP32
        )
        fault = _random_fault(rng, MXUMode.FP32C, k, m, n) if faulty else None
        want = self._per_chunk(a, b, c, k_chunk, acc_bits, mode, fault)
        got = chained_vector_fp32c(
            a, b, c, k_chunk=k_chunk, acc_bits=acc_bits, rounding=mode,
            product_fault=fault,
        )
        assert biteq(got, want)

    @pytest.mark.parametrize("block,group", [(1, 1), (2, 3), (5, 2), (64, 8)])
    def test_block_group_knobs_never_change_bits(self, block, group):
        rng = np.random.default_rng(11)
        a = quantize(rng.standard_normal((7, 13)), FP32)
        b = quantize(rng.standard_normal((13, 6)), FP32)
        c = quantize(rng.standard_normal((7, 6)), FP32)
        want = chained_vector_fp32(a, b, c)
        got = chained_vector_fp32(a, b, c, block=block, group=group)
        assert biteq(got, want)

    def test_adversarial_magnitudes_and_zeros(self):
        # Subnormals, max-magnitude values, signed zeros and heavy
        # cancellation through the chunk seams. Mid-chain FP32 overflow
        # must also agree: either both paths produce the same bits or
        # both reject the non-finite intermediate.
        from repro.mxu.vectorized import NonFiniteOperandError

        specials = np.array(
            [1e-40, -1e-40, 2.0**-149, 3.4e38, -3.4e38, 0.0, -0.0, 1.0]
        )
        rng = np.random.default_rng(5)
        for _ in range(8):
            a = quantize(rng.choice(specials, size=(4, 12)), FP32)
            b = quantize(rng.choice(np.concatenate([specials, [1e-30, -1.0]]),
                                    size=(12, 4)), FP32)
            c = quantize(rng.choice(specials, size=(4, 4)), FP32)

            def outcome(fn):
                try:
                    return ("ok", fn().tobytes())
                except NonFiniteOperandError:
                    return ("nonfinite", None)

            want = outcome(
                lambda: self._per_chunk(a, b, c, 4, 48, RoundingMode.NEAREST_EVEN)
            )
            got = outcome(lambda: chained_vector_fp32(a, b, c))
            assert got == want

    def test_ragged_k_tail_and_empty_dims(self):
        rng = np.random.default_rng(9)
        a = quantize(rng.standard_normal((3, 10)), FP32)  # 10 = 2*4 + 2
        b = quantize(rng.standard_normal((10, 3)), FP32)
        want = self._per_chunk(a, b, 0.0, 4, 48, RoundingMode.NEAREST_EVEN)
        assert biteq(chained_vector_fp32(a, b, 0.0), want)
        empty = chained_vector_fp32(
            np.empty((3, 0)), np.empty((0, 3)), np.float64(2.5)
        )
        assert biteq(empty, np.full((3, 3), 2.5))
