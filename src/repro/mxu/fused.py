"""Fused MMA accumulation and the float64 (BLAS) fast path.

The reference MMA materialises every multiplier-lane product into one
``(..., M, N, parts*K + 1)`` addends tensor
(:func:`~repro.mxu.dataflow.lane_products`) and runs the full alignment
machinery (:func:`~repro.arith.accumulator.aligned_sum`) over it. This
module computes the same result with two coordinated pieces, both
bit-identical to that reference:

1. **Fused windowed accumulation** — lane products are reduced
   group-by-group into one preallocated int64 accumulator
   (:func:`~repro.arith.accumulator.aligned_sum_groups`); the giant
   concatenation never exists.

2. **Float64 fast path** — for wide accumulators (M3XU's 48-bit
   registers) the MMA result is first computed as a plain BLAS
   ``matmul`` in float64. A vectorised soundness check then proves, per
   output element, that the 48-bit windowed path could not round to a
   different FP32 value: both the windowed sum and the float64 sum lie
   within a rigorous error radius ``err`` of the exact sum, so whenever
   ``quantize(fast - err) == quantize(fast + err)`` (quantisation is
   monotonic) every value in between — the windowed sum included —
   quantises identically. Elements that fail the check (results near an
   FP32 rounding boundary, heavy cancellation, non-finite data, exact
   zeros whose sign the window model canonicalises) are recomputed
   through the exact windowed path, gathered element-by-element.

The error radius is anchored on an upper bound of the largest addend:
``bound = rowmax(|A|) * colmax(|B|)`` (an outer product — O(MK + KN + MN)
instead of O(MNK)) joined with ``|C|``. Per-addend alignment rounding is
at most one window-LSB ``2**(2 - acc_bits) * bound``, and float64
summation of ``t*K + 1`` terms obeys the standard ``(n*u)``-style bound;
both are inflated 4x for slack. The equivalence property suite
(``tests/properties/test_fastpath_equivalence.py``) asserts bit-identity
against the materialised reference across modes and edge inputs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..arith.accumulator import aligned_sum_groups
from ..types.formats import FloatFormat
from ..types.quantize import quantize
from ..types.rounding import RoundingMode
from .modes import MXUMode, step_plan

__all__ = [
    "FAST_MIN_ACC_BITS",
    "grouped_lane_products",
    "accumulate_mma",
]

#: Narrower accumulation windows (the baseline Tensor Core's ~27 bits)
#: round nearly every reduction, so the float64 proof almost never fires;
#: below this width the fused windowed path is used unconditionally.
FAST_MIN_ACC_BITS = 40


def grouped_lane_products(
    a_parts: Mapping[str, np.ndarray],
    b_parts: Mapping[str, np.ndarray],
    mode: MXUMode,
    accumulator: str,
) -> list[np.ndarray]:
    """The lane-product groups one accumulator receives, in step order.

    Concatenating the returned list along the last axis reproduces
    ``lane_products(a, b, mode)[accumulator]`` exactly — this is the same
    routing loop, minus the concatenation.
    """
    groups: list[np.ndarray] = []
    for step in step_plan(mode).steps:
        for prod in step.products:
            if prod.accumulator != accumulator:
                continue
            pa = a_parts[prod.a_part][..., :, None, :]  # (..., M, 1, K)
            pb = np.swapaxes(b_parts[prod.b_part], -1, -2)[..., None, :, :]
            p = pa * pb
            if prod.negate:
                p = -p
            groups.append(p)
    return groups


def _lanes_per_k(mode: MXUMode, accumulator: str) -> int:
    return sum(
        1
        for step in step_plan(mode).steps
        for prod in step.products
        if prod.accumulator == accumulator
    )


def _fallback_windowed(
    a_parts: Mapping[str, np.ndarray],
    b_parts: Mapping[str, np.ndarray],
    mode: MXUMode,
    accumulator: str,
    c_q: np.ndarray,
    out_shape: tuple[int, ...],
    idx: tuple[np.ndarray, ...],
    acc_bits: int,
    rounding: RoundingMode,
) -> np.ndarray:
    """Exact windowed sums for the selected output elements only.

    *idx* is an ``np.nonzero``-style index tuple over the output shape;
    the lane products of just those (m, n) pairs are gathered as
    ``(n_selected, K)`` panels and reduced through the same grouped
    windowed accumulation as the full-tensor path (which is invariant to
    element order), so each value is bit-identical to what the
    full-tensor reduction produces for that element.
    """
    lead, mi, ni = idx[:-2], idx[-2], idx[-1]
    groups: list[np.ndarray] = []
    for step in step_plan(mode).steps:
        for prod in step.products:
            if prod.accumulator != accumulator:
                continue
            pa = a_parts[prod.a_part][lead + (mi,)]  # (F, K)
            pb = np.swapaxes(b_parts[prod.b_part], -1, -2)[lead + (ni,)]
            p = pa * pb
            if prod.negate:
                p = -p
            groups.append(p)
    c_sel = np.broadcast_to(c_q, out_shape)[idx]
    groups.append(c_sel[:, None])
    return aligned_sum_groups(groups, acc_bits=acc_bits, mode=rounding)


def _fast_windowed(
    terms: Sequence[tuple[np.ndarray, np.ndarray, bool]],
    a_parts: Mapping[str, np.ndarray],
    b_parts: Mapping[str, np.ndarray],
    mode: MXUMode,
    accumulator: str,
    c_q: np.ndarray,
    out_shape: tuple[int, ...],
    acc_bits: int,
    rounding: RoundingMode,
    out_fmt: FloatFormat,
) -> np.ndarray:
    """BLAS fast path with per-element windowed fallback (see module doc)."""
    k = terms[0][0].shape[-1]

    with np.errstate(invalid="ignore", over="ignore"):
        dot: np.ndarray | None = None
        for a_t, b_t, negate in terms:
            p = np.matmul(a_t, b_t)
            if dot is None:
                dot = -p if negate else p
            elif negate:
                dot = dot - p
            else:
                dot = dot + p
        assert dot is not None
        fast = dot + c_q

        # Anchor bound: no lane product can exceed the row/column operand
        # maxima; C is an addend of the same reduction.
        arow: np.ndarray | None = None
        bcol: np.ndarray | None = None
        for a_t, b_t, _ in terms:
            am = np.abs(a_t).max(axis=-1)
            bm = np.abs(b_t).max(axis=-2)
            arow = am if arow is None else np.maximum(arow, am)
            bcol = bm if bcol is None else np.maximum(bcol, bm)
        bound = arow[..., :, None] * bcol[..., None, :]  # type: ignore[index]
        bound = np.maximum(bound, np.abs(c_q))

        n_addends = _lanes_per_k(mode, accumulator) * k + 1
        slack = 4.0 * n_addends * 2.0 ** (2 - acc_bits)
        slack += 4.0 * (len(terms) * k + 4) ** 2 * 2.0**-53
        err = bound * slack

        lo = quantize(fast - err, out_fmt)
        hi = quantize(fast + err, out_fmt)
        # lo != 0 forces exact zeros through the fallback: the windowed
        # model canonicalises the sign of a zero sum, which the interval
        # test cannot distinguish from a tiny non-zero of either sign.
        ok = np.isfinite(fast) & np.isfinite(err) & (lo == hi) & (lo != 0.0)

    out = lo
    if not ok.all():
        idx = np.nonzero(~ok)
        wide = _fallback_windowed(
            a_parts, b_parts, mode, accumulator, c_q, out_shape, idx, acc_bits, rounding
        )
        out[idx] = quantize(wide, out_fmt)
    return out


def accumulate_mma(
    terms: Sequence[tuple[np.ndarray, np.ndarray, bool]],
    a_parts: Mapping[str, np.ndarray],
    b_parts: Mapping[str, np.ndarray],
    mode: MXUMode,
    accumulator: str,
    c_q: np.ndarray,
    acc_bits: int | None,
    rounding: RoundingMode,
    out_fmt: FloatFormat,
) -> np.ndarray:
    """One accumulator's MMA output, rounded into *out_fmt*.

    Parameters
    ----------
    terms:
        ``(a_dense, b_dense, negate)`` operand pairs whose (exact) summed
        dot products equal the accumulator's lane products — used only by
        the float64 fast path (one pair for real modes; the two component
        pairs of Eq. 9 for FP32C).
    a_parts / b_parts:
        Pre-split operand slices (:func:`~repro.mxu.dataflow.resolve_parts`).
    c_q:
        The C operand, already quantised to *out_fmt*.
    acc_bits / rounding:
        Accumulation window; ``None`` selects the float64 wide path. The
        BLAS fast path runs where the window is wide enough to prove it
        (:data:`FAST_MIN_ACC_BITS`).
    """
    a0, b0 = terms[0][0], terms[0][1]
    out_shape = np.broadcast_shapes(a0.shape[:-2], b0.shape[:-2]) + (
        a0.shape[-2],
        b0.shape[-1],
    )
    use_fast = (
        acc_bits is not None
        and acc_bits >= FAST_MIN_ACC_BITS
        and a0.shape[-1] >= 1
        and a0.shape[:-2] == b0.shape[:-2]  # fallback gather needs equal batches
    )
    if use_fast:
        return _fast_windowed(
            terms, a_parts, b_parts, mode, accumulator, c_q, out_shape,
            acc_bits, rounding, out_fmt,
        )
    groups = grouped_lane_products(a_parts, b_parts, mode, accumulator)
    c_b = np.broadcast_to(c_q, out_shape)[..., None]
    if acc_bits is None:
        # FP64-mode accumulation registers are FP64: a plain float64 sum
        # in fixed lane order.
        # repro: allow[XF503] this .sum() IS the FP64-mode reference
        # semantics: fixed left-to-right float64 accumulation, bit-identical
        # to the scalar oracle — the windowed integer path has no FP64 mode.
        wide = np.concatenate(groups + [c_b], axis=-1).sum(axis=-1)
    else:
        wide = aligned_sum_groups(groups + [c_b], acc_bits=acc_bits, mode=rounding)
    return quantize(wide, out_fmt)
