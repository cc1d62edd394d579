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
over it. Three pieces do the work:

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
   zeros whose sign the window model canonicalises) are recomputed by the
   caller's per-element reduction, a :data:`Fallback` handed the failing
   elements' gathered rows of A and columns of B (:func:`_panels`). Here
   that is the exact grouped windowed accumulation
   (:func:`~repro.arith.accumulator.aligned_sum_groups`) in
   :func:`_fallback_windowed`; the bit-level vector engine runs the same
   loop with its running-anchor datapath instead
   (:mod:`repro.mxu.vectorized`). Only the gathered panels are split
   (:func:`~repro.mxu.dataflow.resolve_parts`), so no whole-operand split
   exists on this path. Narrow windows (the baseline Tensor Core's ~27
   bits), FP64 mode and broadcast batches take the windowed path for
   every element, splitting one chunk at a time.

3. **Guess, then verify** — a failing element whose interval is narrow
   (both FP32 ends finite, nonzero, of one sign and at most
   :data:`_GUESS_STEPS` FP32 steps apart) is almost always one the
   fallback would round like the float64 sum. It takes that rounding and
   the chain moves on; after the last chunk one fallback call per chunk
   width checks every guess bit for bit (:func:`_settle`), and only an
   element with a wrong guess, or whose interval stopped being narrow
   after a guess, is recomputed from a verified value (:func:`_restart`).
   So a chain makes about one fallback call instead of one per failing
   chunk, and nothing unverified survives. Every other failing element
   (an exact zero, non-finite data, a wide interval) resolves at its
   chunk.

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

#: ``fallback(a_rows, b_cols, c_sel)``: the FP32 results of one MMA's
#: windowed reduction for ``n`` output elements, given each element's row
#: of A and column of B over that MMA's K range as ``(n, k)`` panels
#: (:func:`_panels`) and its accumulator *c_sel*.
Fallback = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

#: A failing element is guessed (:func:`_fast_chain`) when its two FP32
#: interval ends are at most this many FP32 steps apart. Almost every
#: failing element of well-scaled data has adjacent ends.
_GUESS_STEPS = 256

#: One guess: ``(chunk, elements, C they entered with, FP32 guesses)``.
_Record = tuple[int, np.ndarray, np.ndarray, np.ndarray]


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
    a_rows: np.ndarray,
    b_cols: np.ndarray,
    c_sel: np.ndarray,
) -> np.ndarray:
    """Exact windowed sums of one MMA for gathered output elements, rounded
    to FP32 (a :data:`Fallback` once the first four are bound).

    *a_rows*/*b_cols* are the elements' ``(n, K)`` panels and *c_sel* their
    accumulator. Only the panels are split, and their lane products and C
    reduced as one ``(n, lanes*K + 1)`` group through the same windowed
    accumulation as the full-tensor path (which is invariant to addend
    and element order), so each value is bit-identical to what the
    full-tensor reduction produces for that element.
    """
    n = a_rows.shape[0]
    # One split for both panels: A's rows, then B's columns.
    parts = resolve_parts(np.concatenate([a_rows, b_cols]), mode)
    addends: list[np.ndarray] = []
    for a_part, b_part, negate in _routes(mode, accumulator):
        p = parts[a_part][:n] * parts[b_part][n:]
        addends.append(-p if negate else p)
    addends.append(c_sel[:, None])
    group = np.concatenate(addends, axis=-1)
    return quantize(aligned_sum_groups([group], acc_bits=acc_bits, mode=rounding), FP32)


def _panels(
    a: np.ndarray,
    b: np.ndarray,
    shape: tuple[int, ...],
    sel: np.ndarray,
    k0: int | np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(n, width)`` panels of the A rows and B columns that meet at the
    flat output elements *sel* of *shape*, from K offset *k0* on: one
    offset for all, or one per element. Leading batch axes of *a* and *b*
    are indexed like the output's."""
    *lead, mi, ni = (i[:, None] for i in np.unravel_index(sel, shape))
    ks = np.reshape(k0, (-1, 1)) + np.arange(width)
    return a[(*lead, mi, ks)], b[(*lead, ks, ni)]


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
    guess: bool = True,
) -> np.ndarray:
    """BLAS chain with per-element *fallback* reduction (see module doc).

    *acc* holds the initial accumulator and is updated in place, chunk by
    chunk; every temporary is allocated once for the whole chain. A chain
    of no chunks leaves *acc* untouched. With *guess* off, every failing
    element resolves at its chunk (:func:`_restart` runs chains so).
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
    records: list[_Record] = []
    # Per element: 0 no guess, 1 guessed, 2 stopped (see _guess).
    marks = np.zeros(acc.size if guess else 0, dtype=np.uint8)
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
            if sel.size and guess:
                sel, c_sel = _guess(i, sel, c_sel, lo, hi, fast, flat_acc, marks, records)
            if sel.size:
                flat_acc[sel] = fallback(*_panels(a, b, shape, sel, k0, k1 - k0), c_sel)
        if records:
            # The settle's one batched call needs none of the loop's
            # buffers: free them first, so it adds nothing to the peak.
            del fast, err, tmp, lo, hi, bad, zero
            _settle(a, b, acc, marks, records, mode, accumulator, bounds, acc_bits, fallback)
    return acc


def _guess(
    i: int,
    sel: np.ndarray,
    c_sel: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    fast: np.ndarray,
    flat_acc: np.ndarray,
    marks: np.ndarray,
    records: list[_Record],
) -> tuple[np.ndarray, np.ndarray]:
    """Record chunk *i*'s failing elements *sel* that can wait for
    :func:`_settle`; return the others and their C, which resolve now.

    An element with a narrow interval takes the FP32 rounding of its
    float64 sum as its guess, also when it carries guesses already; the C
    of a record is finite, since its float64 sum is. An element that
    carries a guess but whose interval is not narrow stops: its C may be
    made up, so no fallback may see it, and it takes no further part in
    the loop until :func:`_restart`.
    """
    lo_s, hi_s = lo.reshape(-1)[sel], hi.reshape(-1)[sel]
    steps = hi_s.view(np.int32).astype(np.int64) - lo_s.view(np.int32)
    narrow = (
        np.isfinite(lo_s)
        & np.isfinite(hi_s)
        & (np.sign(lo_s) * np.sign(hi_s) > 0)
        & (np.abs(steps) <= _GUESS_STEPS)
    )
    mark = marks[sel]
    new = narrow & (mark < 2)
    if new.any():
        mine = sel[new]
        guess = quantize(fast.reshape(-1)[mine], FP32)
        flat_acc[mine] = guess
        marks[mine] = 1
        records.append((i, mine, c_sel[new], guess))
    marks[sel[~narrow & (mark == 1)]] = 2
    now = ~narrow & (mark == 0)
    return sel[now], c_sel[now]


def _settle(
    a: np.ndarray,
    b: np.ndarray,
    acc: np.ndarray,
    marks: np.ndarray,
    records: list[_Record],
    mode: MXUMode,
    accumulator: str,
    bounds: list[tuple[int, int]],
    acc_bits: int,
    fallback: Fallback,
) -> None:
    """Verify a chain's guesses and restart the elements that need it.

    One *fallback* call per chunk width evaluates every record from the C
    its element entered that chunk with, and each result is compared with
    the guess bit for bit. An element whose records all match and that
    never stopped keeps the chain's value. Any other element restarts
    (:func:`_restart`) from its first wrong record or, if all match, from
    its last record before it stopped, with that record's verified value.
    This is bit-identical to resolving every failing element at its
    chunk:

    * the chains of different output elements never interact, so each
      element's value is a function of its own chain alone;
    * a record's C is exact while every earlier record of its element
      matched, because every earlier chunk was then proven from exact
      inputs, resolved or verified; so the restart value is the
      datapath's result at that chunk, and an element whose records all
      match and that never stopped has only exact inputs throughout;
    * a record whose C is made up (after a wrong guess) reaches the
      fallback with a finite FP32 C, so it cannot raise, and its result
      is discarded;
    * an element's failure with a made-up C and an interval that is not
      narrow never reaches a fallback, so on the bit level a chunk after
      an FP32 overflow still raises ``NonFiniteOperandError`` exactly
      when the per-chunk loop does, and an overflow in the last chunk
      still returns ±inf.
    """
    chunk = np.repeat([r[0] for r in records], [r[1].size for r in records])
    sel, c_sel, guess = (np.concatenate(parts) for parts in list(zip(*records))[1:])
    starts = np.array([k0 for k0, _ in bounds])
    width = np.array([k1 - k0 for k0, k1 in bounds])[chunk]
    true = np.empty_like(guess)
    for w in set(width.tolist()):
        mine = width == w
        true[mine] = fallback(
            *_panels(a, b, acc.shape, sel[mine], starts[chunk[mine]], w), c_sel[mine]
        )
    # Records grouped by element, each group in chunk order: an element
    # restarts at its first wrong record or, when it stopped, its last.
    order = np.argsort(sel, kind="stable")
    elem = sel[order]
    edge = elem[1:] != elem[:-1]
    wrong = true.view(np.uint64) != guess.view(np.uint64)
    due = wrong[order] | (np.append(edge, True) & (marks[elem] == 2))
    hit = np.flatnonzero(due)
    if not hit.size:
        return
    group = np.cumsum(np.insert(edge, 0, True))[hit]
    first = order[hit[np.insert(group[1:] != group[:-1], 0, True)]]
    _restart(
        a, b, acc, sel[first], chunk[first], true[first], mode, accumulator,
        bounds, acc_bits, fallback,
    )


def _restart(
    a: np.ndarray,
    b: np.ndarray,
    acc: np.ndarray,
    sel: np.ndarray,
    chunk: np.ndarray,
    value: np.ndarray,
    mode: MXUMode,
    accumulator: str,
    bounds: list[tuple[int, int]],
    acc_bits: int,
    fallback: Fallback,
) -> None:
    """Finish the chains of elements *sel* after their *chunk*, from the
    verified *value* of that chunk, without guessing.

    Elements restarting at one chunk run as a stack of 1x1 chains, each
    with its own row of A and column of B, so no element is computed from
    another's made-up C.
    """
    flat_acc = acc.reshape(-1)
    k_end = bounds[-1][1]
    for j in sorted(set(chunk.tolist())):
        mine = chunk == j
        elems, sub = sel[mine], value[mine]
        if j + 1 < len(bounds):
            k_start = bounds[j + 1][0]
            rows, cols = _panels(a, b, acc.shape, elems, k_start, k_end - k_start)
            sub = sub.reshape(-1, 1, 1)
            _fast_chain(
                rows[:, None, :], cols[:, :, None], sub, mode, accumulator,
                [(k0 - k_start, k1 - k_start) for k0, k1 in bounds[j + 1 :]],
                acc_bits, fallback, guess=False,
            )
        flat_acc[elems] = sub.reshape(-1)


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
