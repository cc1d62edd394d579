"""Property-based tests of the MXU functional models' core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import exact_dot
from repro.mxu import M3XU, MXUMode
from repro.types import FP32, quantize

_UNIT = M3XU()

small_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


def _fp32_matrix(values, rows, cols):
    return quantize(np.array(values, dtype=np.float64).reshape(rows, cols), FP32)


@given(
    a_vals=st.lists(small_floats, min_size=8, max_size=8),
    b_vals=st.lists(small_floats, min_size=8, max_size=8),
    c_val=small_floats,
)
@settings(max_examples=60, deadline=None)
def test_fp32_mma_within_half_ulp(a_vals, b_vals, c_val):
    """For arbitrary FP32 inputs, one M3XU FP32 MMA is within half an ulp
    of the exact dot product — correctly rounded except when an FP32
    midpoint tie is broken only by bits below the 48-bit accumulation
    window (a case hypothesis does construct; FP32 FMA chains lose those
    bits too, so the paper's no-additional-error claim is unaffected)."""
    from fractions import Fraction

    a = _fp32_matrix(a_vals, 2, 4)
    b = _fp32_matrix(b_vals, 4, 2)
    c = float(quantize(np.array(c_val), FP32))
    d = _UNIT.mma_fp32(a, b, c)
    for i in range(2):
        for j in range(2):
            exact = Fraction(c)
            for x, y in zip(a[i], b[:, j]):
                exact += Fraction(float(x)) * Fraction(float(y))
            ref = exact_dot(list(a[i]), list(b[:, j]), c, FP32)
            got = float(d[i, j])
            if got == ref:
                continue
            # Tie-break divergence: both candidates within half an ulp
            # (plus a one-window-LSB allowance) of the exact value.
            if exact == 0:
                assert got == 0.0
                continue
            mag = abs(exact)
            e = mag.numerator.bit_length() - mag.denominator.bit_length()
            half_ulp = Fraction(2) ** (max(e, -126) - 24)
            tol = half_ulp * (1 + Fraction(1, 1 << 20))
            assert abs(Fraction(got) - exact) <= tol


@given(
    re_vals=st.lists(small_floats, min_size=4, max_size=4),
    im_vals=st.lists(small_floats, min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_fp32c_conjugate_symmetry(re_vals, im_vals):
    """conj(a) . conj(b) == conj(a . b) for the hardware CGEMM (the
    rounding is sign-symmetric, so conjugation commutes)."""
    a = quantize(np.array(re_vals[:2]), FP32).reshape(1, 2) + 1j * quantize(
        np.array(im_vals[:2]), FP32
    ).reshape(1, 2)
    b = quantize(np.array(re_vals[2:]), FP32).reshape(2, 1) + 1j * quantize(
        np.array(im_vals[2:]), FP32
    ).reshape(2, 1)
    d = _UNIT.mma_fp32c(a, b, 0.0)
    d_conj = _UNIT.mma_fp32c(np.conj(a), np.conj(b), 0.0)
    np.testing.assert_array_equal(d_conj, np.conj(d))


def _scaling_commutes(a, a_s, d1, d2):
    """Where binary scaling commutes with every rounding in the unit.

    Both A and the scaled A must be in the normal range (a subnormal
    operand is split without its hidden bit, and subnormal quantisation
    legitimately drops bits), and each result must have been rounded on
    the normal grid: finite and at least 2^-125, since an exact sum just
    below 2^-126 can round up to it on the subnormal grid.
    """
    for x in (a, a_s):
        nz = x[x != 0.0]
        if nz.size and np.min(np.abs(nz)) < 2.0**-126:
            return np.zeros(d1.shape, dtype=bool)
    keep = np.isfinite(d1) & np.isfinite(d2)
    return keep & (np.abs(d1) >= 2.0**-125) & (np.abs(d2) >= 2.0**-125)


@given(
    vals=st.lists(small_floats, min_size=8, max_size=8),
    scale_pow=st.integers(min_value=-40, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_fp32_mma_scale_invariance(vals, scale_pow):
    """Scaling A by a power of two scales D by the same factor exactly
    wherever :func:`_scaling_commutes` holds."""
    a = _fp32_matrix(vals[:4], 1, 4)
    b = _fp32_matrix(vals[4:], 4, 1)
    s = 2.0**scale_pow
    a_s = quantize(a * s, FP32)
    d1 = _UNIT.mma_fp32(a, b, 0.0)
    d2 = _UNIT.mma_fp32(a_s, b, 0.0)
    keep = _scaling_commutes(a, a_s, d1, d2)
    np.testing.assert_array_equal(d2[keep], (d1 * s)[keep])


def test_scaling_stops_commuting_on_the_subnormal_grid():
    """The counterexample the scale-invariance filter must exclude: the
    unscaled 511.5 * 2^-149 ties on the subnormal grid and rounds to even,
    2^-140, while the scaled result keeps all ten bits."""
    a = np.array([[2.0**-149, 0.0, 0.0, 0.0]])
    b = np.array([[511.5], [0.0], [0.0], [0.0]])
    s = 2.0**40
    a_s = quantize(a * s, FP32)
    d1 = _UNIT.mma_fp32(a, b, 0.0)
    d2 = _UNIT.mma_fp32(a_s, b, 0.0)
    assert d1[0, 0] == 2.0**-140
    assert d2[0, 0] == 511.5 * 2.0**-109
    assert d2[0, 0] != d1[0, 0] * s
    assert not _scaling_commutes(a, a_s, d1, d2).any()


@given(vals=st.lists(small_floats, min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_fp32_mma_negation_antisymmetry(vals):
    a = _fp32_matrix(vals[:4], 1, 4)
    b = _fp32_matrix(vals[4:], 4, 1)
    d = _UNIT.mma_fp32(a, b, 0.0)
    dn = _UNIT.mma_fp32(-a, b, 0.0)
    np.testing.assert_array_equal(dn, -d)


@given(
    vals=st.lists(small_floats, min_size=12, max_size=12),
    perm_seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_fp32_mma_k_permutation_invariance(vals, perm_seed):
    """Within one MMA the wide accumulation is order-free: permuting the
    K axis of both operands cannot change the result."""
    a = _fp32_matrix(vals[:4], 1, 4)
    b = _fp32_matrix(vals[4:8], 4, 1)
    perm = np.random.default_rng(perm_seed).permutation(4)
    d1 = _UNIT.mma_fp32(a, b, 0.0)
    d2 = _UNIT.mma_fp32(a[:, perm], b[perm, :], 0.0)
    np.testing.assert_array_equal(d1, d2)
