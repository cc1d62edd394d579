"""Fused MMA accumulation: one kernel call per K-chain, BLAS where proven.

A GEMM on M3XU is a chain of MMAs along K with a rounding seam between
chunks (§IV-A, Fig. 3b): each chunk's lane products join the running
accumulator C in the wide window, and the sum is rounded into the output
register that feeds the next chunk. :func:`accumulate_mma` evaluates one
accumulation register's whole chain; a single MMA is the one-chunk chain.
Every chunk is bit-identical to the reference MMA, which materialises
every multiplier-lane product into one ``(..., M, N, parts*K + 1)``
addends tensor (:func:`~repro.mxu.dataflow.lane_products`) and runs the
full alignment machinery (:func:`~repro.arith.accumulator.aligned_sum`)
over it. Two pieces do the work:

1. **Float64 fast path** (:func:`_fast_chain`) — for wide accumulators
   (M3XU's 48-bit registers) each chunk is first computed as a plain BLAS
   ``matmul`` in float64, written in place into buffers allocated once
   per chain. A vectorised soundness check then proves, per output
   element, that the windowed path could not round to a different FP32
   value: both the windowed sum and the float64 sum lie within a rigorous
   error radius ``err`` of the exact sum (:func:`_radius`), so whenever
   ``quantize(fast - err) == quantize(fast + err)`` (quantisation is
   monotonic) every value in between — the windowed sum included —
   quantises identically.

2. **Windowed fallback** — elements that fail the check (results near an
   FP32 rounding boundary, heavy cancellation, non-finite data, exact
   zeros whose sign the window model canonicalises) are found with one
   flat nonzero per chunk and recomputed by the caller's per-element
   reduction before the next chunk reads them. Here that is the exact
   grouped windowed accumulation
   (:func:`~repro.arith.accumulator.aligned_sum_groups`) in
   :func:`_fallback_windowed`; the bit-level vector engine runs the same
   loop with its running-anchor datapath instead
   (:mod:`repro.mxu.vectorized`). Only the failing elements' rows of A
   and columns of B are gathered and split
   (:func:`~repro.mxu.dataflow.resolve_parts`), so no whole-operand split
   exists on this path. Narrow windows (the baseline Tensor Core's ~27
   bits), FP64 mode and broadcast batches take the windowed path for
   every element, splitting one chunk at a time.

The error radius is anchored on an upper bound of the largest addend:
``bound = rowmax(|A|) * colmax(|B|)`` (an outer product — O(MK + KN + MN)
instead of O(MNK); one pass over each operand yields every chunk's
maxima) joined with ``|C|``. The equivalence property suite
(``tests/properties/test_fastpath_equivalence.py``) asserts bit-identity
against the materialised reference across modes and edge inputs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping

import numpy as np

from ..arith.accumulator import aligned_sum_groups
from ..types.formats import FP32, FloatFormat
from ..types.quantize import quantize
from ..types.rounding import RoundingMode
from .dataflow import resolve_parts
from .modes import MXUMode, chunk_bounds, step_plan

__all__ = [
    "FAST_MIN_ACC_BITS",
    "grouped_lane_products",
    "accumulate_mma",
]

#: Narrower accumulation windows (the baseline Tensor Core's ~27 bits)
#: round nearly every reduction, so the float64 proof almost never fires;
#: below this width the fused windowed path is used unconditionally.
FAST_MIN_ACC_BITS = 40

#: ``fallback(a, b, c_sel, idx)``: the FP32 results of one chunk's
#: windowed reduction at the output elements *idx* (an ``np.nonzero``-style
#: index tuple), given the chunk's operands and the accumulator *c_sel* at
#: those elements.
Fallback = Callable[[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]], np.ndarray]


def _routes(mode: MXUMode, accumulator: str) -> list[tuple[str, str, bool]]:
    """``(a_part, b_part, negate)`` of every lane feeding *accumulator*,
    in step order."""
    return [
        (prod.a_part, prod.b_part, prod.negate)
        for step in step_plan(mode).steps
        for prod in step.products
        if prod.accumulator == accumulator
    ]


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
    for a_part, b_part, negate in _routes(mode, accumulator):
        pa = a_parts[a_part][..., :, None, :]  # (..., M, 1, K)
        pb = np.swapaxes(b_parts[b_part], -1, -2)[..., None, :, :]
        p = pa * pb
        groups.append(-p if negate else p)
    return groups


def _blas_terms(
    a: np.ndarray, b: np.ndarray, mode: MXUMode, accumulator: str
) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """``(a, b, negate)`` real operand pairs whose summed products equal
    the accumulator's lane products: the operands themselves (every split
    is exact), or the two component pairs of Eq. 9 for FP32C. The first
    pair is never negated."""
    if mode is not MXUMode.FP32C:
        return [(a, b, False)]
    ar, ai = np.ascontiguousarray(a.real), np.ascontiguousarray(a.imag)
    br, bi = np.ascontiguousarray(b.real), np.ascontiguousarray(b.imag)
    if accumulator == "real":  # Re = Ar*Br - Ai*Bi
        return [(ar, br, False), (ai, bi, True)]
    return [(ar, bi, False), (ai, br, False)]  # Im = Ar*Bi + Ai*Br


def _fallback_windowed(
    mode: MXUMode,
    accumulator: str,
    acc_bits: int,
    rounding: RoundingMode,
    a: np.ndarray,
    b: np.ndarray,
    c_sel: np.ndarray,
    idx: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Exact windowed sums of one chunk for the selected output elements,
    rounded to FP32 (a :data:`Fallback` once the first four are bound).

    *a*/*b* are the chunk's operands, *idx* an ``np.nonzero``-style index
    tuple over the output shape and *c_sel* the accumulator at those
    elements. Just the gathered rows of A and columns of B are split, as
    ``(n_selected, K)`` panels, and their lane products and C reduced as
    one ``(n_selected, lanes*K + 1)`` group through the same windowed
    accumulation as the full-tensor path (which is invariant to addend
    and element order), so each value is bit-identical to what the
    full-tensor reduction produces for that element.
    """
    lead, mi, ni = idx[:-2], idx[-2], idx[-1]
    n = mi.size
    # One split for both panels: A's rows, then B's columns, (F, K) each.
    rows = np.concatenate([a[lead + (mi,)], np.swapaxes(b, -1, -2)[lead + (ni,)]])
    parts = resolve_parts(rows, mode)
    addends: list[np.ndarray] = []
    for a_part, b_part, negate in _routes(mode, accumulator):
        p = parts[a_part][:n] * parts[b_part][n:]
        addends.append(-p if negate else p)
    addends.append(c_sel[:, None])
    group = np.concatenate(addends, axis=-1)
    return quantize(aligned_sum_groups([group], acc_bits=acc_bits, mode=rounding), FP32)


def _radius(lanes: int, k: int, terms: int, acc_bits: int) -> float:
    """Error radius of one chunk, per unit of ``max(bound, |C|)``.

    A chunk adds ``n = lanes*k + 1`` addends into the window — its lane
    products and C — none larger than ``M = max(bound, |C|)``. Under
    either alignment discipline the window ends within ``n * 2**(2 -
    acc_bits) * M`` of the exact sum:

    * one anchor per MMA (:func:`_fallback_windowed`) rounds each addend
      once onto the window, at most one window LSB ``2**(2 - acc_bits) *
      M`` each;
    * a running anchor raised slot by slot
      (:class:`~repro.mxu.bitlevel.BitAccumulator`, the vector engine's
      fallback) makes at most ``n`` alignments and at most ``n``
      re-roundings of the partial sum when the anchor rises. Each is
      within one LSB of the window at that moment, and the anchor only
      rises, so within one LSB of the final window, ``2**(1 - acc_bits)
      * M``: ``2n`` errors of that size.

    The float64 BLAS sum of ``terms*k`` products plus C obeys the
    standard ``(n*u)``-style bound. Both terms are inflated 4x for slack,
    so the radius holds for whichever discipline the fallback runs.
    """
    window = 4.0 * (lanes * k + 1) * 2.0 ** (2 - acc_bits)
    return window + 4.0 * (terms * k + 4) ** 2 * 2.0**-53


def _fast_chain(
    a: np.ndarray,
    b: np.ndarray,
    acc: np.ndarray,
    mode: MXUMode,
    accumulator: str,
    bounds: list[tuple[int, int]],
    acc_bits: int,
    fallback: Fallback,
) -> np.ndarray:
    """BLAS chain with per-element *fallback* reduction (see module doc).

    *acc* holds the initial accumulator and is updated in place, chunk by
    chunk; every temporary is allocated once for the whole chain. A chain
    of no chunks leaves *acc* untouched.
    """
    terms = _blas_terms(a, b, mode, accumulator)
    (a0, b0, _), rest = terms[0], terms[1:]
    n_lanes = len(_routes(mode, accumulator))
    starts = [k0 for k0, _ in bounds]
    # Anchor bounds of every chunk: no lane product can exceed its chunk's
    # row/column operand maxima. C joins them per chunk below.
    arow = np.max(  # (..., M, chunks)
        [np.maximum.reduceat(np.abs(t[0]), starts, axis=-1) for t in terms], axis=0
    )
    bcol = np.max(  # (..., chunks, N)
        [np.maximum.reduceat(np.abs(t[1]), starts, axis=-2) for t in terms], axis=0
    )

    shape = acc.shape
    flat_acc = acc.reshape(-1)
    fast = np.empty(shape)
    err = np.empty(shape)
    tmp = np.empty(shape)
    # repro: allow[PS105] storing into float32 IS quantize(x, FP32): the
    # same RNE conversion quantize's fast path performs, overflow to inf
    # included, so lo/hi below are the FP32-rounded interval ends.
    lo = np.empty(shape, dtype=np.float32)
    hi = np.empty_like(lo)
    bad = np.empty(shape, dtype=bool)
    zero = np.empty(shape, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for i, (k0, k1) in enumerate(bounds):
            np.matmul(a0[..., k0:k1], b0[..., k0:k1, :], out=fast)
            for a_t, b_t, negate in rest:
                np.matmul(a_t[..., k0:k1], b_t[..., k0:k1, :], out=tmp)
                (np.subtract if negate else np.add)(fast, tmp, out=fast)
            np.multiply(arow[..., i, None], bcol[..., i : i + 1, :], out=err)
            np.maximum(err, np.abs(acc, out=tmp), out=err)
            np.add(fast, acc, out=fast)
            np.multiply(err, _radius(n_lanes, k1 - k0, len(terms), acc_bits), out=err)
            # float64 arithmetic, one RNE store into FP32 per interval end.
            np.subtract(fast, err, out=lo, casting="same_kind")
            np.add(fast, err, out=hi, casting="same_kind")
            # Non-finite data needs no test of its own: the bound carries
            # every inf/NaN addend, so there one interval end is NaN or the
            # two are opposite infinities. lo == 0 forces exact zeros through the
            # fallback: the windowed model canonicalises the sign of a
            # zero sum, which the interval cannot tell from a tiny
            # non-zero of either sign.
            np.not_equal(lo, hi, out=bad)
            bad |= np.equal(lo, 0.0, out=zero)
            sel = np.flatnonzero(bad)
            c_sel = flat_acc[sel]
            acc[...] = lo
            if sel.size:
                flat_acc[sel] = fallback(
                    a[..., k0:k1], b[..., k0:k1, :], c_sel, np.unravel_index(sel, shape)
                )
    return acc


def accumulate_mma(
    a: np.ndarray,
    b: np.ndarray,
    c_q: np.ndarray,
    mode: MXUMode,
    accumulator: str,
    acc_bits: int | None,
    rounding: RoundingMode,
    out_fmt: FloatFormat,
    k_chunk: int | None = None,
) -> np.ndarray:
    """One accumulation register's output after a K-chain of MMAs.

    Parameters
    ----------
    a, b:
        The operands the multipliers consume, ``(..., M, K)`` and
        ``(..., K, N)``: FP32 register values (complex128 for FP32C), or
        input-format values for the single-step modes.
    c_q:
        The initial accumulator, already in *out_fmt*.
    accumulator:
        Which register of the mode's step plan (``"real"``, or ``"imag"``
        for FP32C).
    acc_bits / rounding:
        Accumulation window; ``None`` selects the float64 wide path. The
        BLAS fast path runs where the window is wide enough to prove it
        (:data:`FAST_MIN_ACC_BITS`).
    k_chunk:
        K elements per MMA; the accumulator is rounded into *out_fmt*
        after every chunk. ``None`` runs one MMA over all of K — even
        K = 0, whose lone addend C still passes through the window,
        whereas a chain of no chunks returns C untouched.
    """
    k = a.shape[-1]
    out_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
        a.shape[-2],
        b.shape[-1],
    )
    bounds = chunk_bounds(k, k_chunk)
    acc = np.array(np.broadcast_to(c_q, out_shape), dtype=np.float64)
    if (
        acc_bits is not None
        and acc_bits >= FAST_MIN_ACC_BITS
        and out_fmt == FP32
        and k >= 1
        and a.shape[:-2] == b.shape[:-2]  # fallback gather needs equal batches
    ):
        fallback = partial(_fallback_windowed, mode, accumulator, acc_bits, rounding)
        return _fast_chain(a, b, acc, mode, accumulator, bounds, acc_bits, fallback)
    for k0, k1 in bounds:
        groups = grouped_lane_products(
            resolve_parts(a[..., k0:k1], mode),
            resolve_parts(b[..., k0:k1, :], mode),
            mode,
            accumulator,
        )
        groups.append(acc[..., None])
        if acc_bits is None:
            # FP64-mode accumulation registers are FP64: a plain float64 sum
            # in fixed lane order.
            # repro: allow[XF503] this .sum() IS the FP64-mode reference
            # semantics: fixed left-to-right float64 accumulation, bit-identical
            # to the scalar oracle — the windowed integer path has no FP64 mode.
            wide = np.concatenate(groups, axis=-1).sum(axis=-1)
        else:
            wide = aligned_sum_groups(groups, acc_bits=acc_bits, mode=rounding)
        acc = quantize(wide, out_fmt)
    return acc
