"""Property-based tests on the GEMM drivers and the bit-level datapath."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import exact_dot
from repro.gemm import TiledGEMM, mxu_sgemm, sgemm_simt
from repro.mxu import BitLevelMXU, MXUMode, bit_level_chain
from repro.types import FP32, quantize

vals = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e8, max_value=1e8)


@given(data=st.lists(vals, min_size=18, max_size=18))
@settings(max_examples=40, deadline=None)
def test_bit_level_always_correctly_rounded(data):
    """Arbitrary inputs: the bit-level datapath equals exact rounding."""
    a = quantize(np.array(data[:9]), FP32)
    b = quantize(np.array(data[9:]), FP32)
    got = bit_level_chain(a[None, :], b[:, None], 0.0, MXUMode.FP32)[0, 0]
    ref = exact_dot(list(a), list(b), 0.0, FP32)
    assert got == ref


def test_tie_broken_only_below_the_window_rounds_to_even():
    """The pinned counterexample to exact rounding: no model keeps a sticky bit.

    The 2**-126 product falls below the 48-bit window of the first MMA,
    so the value level and the vector engine drop it there, and the
    second chunk's sum 62570730 is an FP32 tie that rounds to even; the
    single-MMA scalar walker drops it below its window the same way.
    The exact dot product sits just above the tie and rounds up.
    """
    a = quantize(np.array([1, 2.0**-126, 0, 0, 1, 0, 0, 0, 0]), FP32)
    b = quantize(np.array([2, 1, 0, 0, 62570726, 0, 0, 0, 0]), FP32)
    vector = TiledGEMM(BitLevelMXU(engine="vector"), MXUMode.FP32)
    assert mxu_sgemm(a[None, :], b[:, None])[0, 0] == 62570728.0
    assert vector.run(a[None, :], b[:, None])[0, 0] == 62570728.0
    assert bit_level_chain(a[None, :], b[:, None], 0.0, MXUMode.FP32)[0, 0] == 62570728.0
    assert exact_dot(list(a), list(b), 0.0, FP32) == 62570732.0


@given(
    m=st.integers(2, 6),
    n=st.integers(2, 6),
    k=st.integers(1, 20),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_mxu_sgemm_error_bounded(m, n, k, seed):
    """Any shape: the M3XU GEMM stays within the chunked-rounding bound."""
    rng = np.random.default_rng(seed)
    a = quantize(rng.uniform(-1, 1, size=(m, k)), FP32)
    b = quantize(rng.uniform(-1, 1, size=(k, n)), FP32)
    got = mxu_sgemm(a, b)
    ref = a @ b
    mag = np.abs(a) @ np.abs(b)
    chunks = max(1, -(-k // 4))
    bound = (chunks + 1) * 2.0**-24 * mag + 1e-300
    assert np.all(np.abs(got - ref) <= bound)


@given(
    k=st.integers(1, 16),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_m3xu_never_less_accurate_than_simt_elementwise_agg(k, seed):
    """Aggregate error of M3XU <= aggregate error of the FP32 FMA chain."""
    rng = np.random.default_rng(seed)
    a = quantize(rng.uniform(0.1, 1.0, size=(4, k)), FP32)
    b = quantize(rng.uniform(0.1, 1.0, size=(k, 4)), FP32)
    ref = a @ b
    err_m3 = np.sum(np.abs(mxu_sgemm(a, b) - ref))
    err_simt = np.sum(np.abs(sgemm_simt(a, b) - ref))
    # Within one MMA the M3XU result is correctly rounded; across chunk
    # boundaries the FP32 re-rounding points differ from the chain's, so
    # individual draws can tip either way by a fraction of an ulp — the
    # aggregate stays comparable (and is typically ~2x lower).
    assert err_m3 <= err_simt * 1.6 + 1e-10


@given(
    scale=st.integers(-30, 30),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=20, deadline=None)
def test_gemm_binary_scale_equivariance(scale, seed):
    """Scaling inputs by powers of two scales outputs exactly (no rounding
    interacts with binary scaling until over/underflow)."""
    rng = np.random.default_rng(seed)
    a = quantize(rng.uniform(0.5, 2.0, size=(4, 8)), FP32)
    b = quantize(rng.uniform(0.5, 2.0, size=(8, 4)), FP32)
    s = 2.0**scale
    d1 = mxu_sgemm(a, b)
    d2 = mxu_sgemm(a * s, b)
    np.testing.assert_array_equal(d2, d1 * s)
