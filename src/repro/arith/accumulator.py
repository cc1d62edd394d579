"""Finite-width alignment-based accumulation (the dot-product-unit adder tree).

Hardware dot-product units do not sum floating-point numbers pairwise with
per-add rounding. They align all partial products to a common anchor
exponent, truncate each to the adder-tree width, and add as integers — one
rounding *region* per reduction, not per element. M3XU's contribution on
this axis is simply *wider* registers: "slight extensions to accumulators
to accumulate numbers in correct double-precision formats" with "48-bit
registers for the accumulation results" (Section IV-A).

:func:`aligned_sum` models exactly that: reduce along an axis with
configurable datapath width.

Two accumulation disciplines live here:

* :func:`aligned_sum` / :func:`aligned_sum_groups` — **single-anchor**
  alignment: the anchor is the maximum exponent over the whole reduction
  group, known before any addition. Every addend is rounded once against
  that final window. This is what the fused MMA fast path uses.
* :func:`segmented_windowed_sum_f32` — **running-anchor** alignment, the
  bit-level RTL discipline of
  :class:`~repro.mxu.bitlevel.BitAccumulator`: the anchor is the running
  maximum, and whenever a later addend raises it, the *partial sum
  accumulated so far* is re-rounded by the shift. The two disciplines are
  bit-identical unless the exponent span exceeds the window width (then
  single-anchor rounds each small addend individually while the
  running-anchor path rounds their sum), so the vectorized bit-level
  engine must replicate the running-anchor discipline rather than reuse
  the single-anchor kernels. The kernel is a **segmented** exact
  reduction of the slot walk, and its oracle is the scalar
  :class:`~repro.mxu.bitlevel.BitAccumulator` itself.
"""

from __future__ import annotations

import numpy as np

from ..types.formats import FloatFormat
from ..types.rounding import RoundingMode

__all__ = [
    "aligned_sum",
    "aligned_sum_groups",
    "segmented_windowed_sum_f32",
    "int_window_to_float",
]

#: Width of the M3XU accumulation registers (Section IV-A).
M3XU_ACC_BITS = 48

#: Effective internal alignment width attributed to baseline Tensor Core
#: dot-product units by reverse-engineering studies (products are aligned
#: and summed with around 24+ carry bits before the FP32 round).
TENSORCORE_ACC_BITS = 27


def aligned_sum(
    products: np.ndarray,
    axis: int = -1,
    acc_bits: int | None = M3XU_ACC_BITS,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> np.ndarray:
    """Sum *products* along *axis* through a finite-width aligned datapath.

    Parameters
    ----------
    products:
        float64 partial products (each individually exact — the multiplier
        outputs). Non-finite values propagate to the result.
    axis:
        Reduction axis.
    acc_bits:
        Datapath width W. Every addend is aligned to the largest exponent
        in its reduction group and rounded to W significant bits relative
        to that anchor before the integer add. ``None`` selects the
        float64 fast path (W = 53, adequate for M3XU's 48-bit claim and
        used by the large-scale models; the finite-width path validates it).
    mode:
        Rounding applied during alignment (hardware truncates or RNEs the
        shifted-out bits; both are supported).

    Returns
    -------
    np.ndarray
        float64 sums with the axis reduced.

    Notes
    -----
    With ``acc_bits = W`` the integer representation of each addend is
    ``round(p * 2**(W-2-Emax))`` — the largest addend occupies W-1 bits, so
    a 64-bit integer holds sums of up to ~2**5 addends headroom-free. The
    reduction length must keep ``W + log2(K) + 2 <= 63``.
    """
    products = np.asarray(products, dtype=np.float64)
    if acc_bits is None:
        return products.sum(axis=axis)
    k = products.shape[axis]
    if acc_bits + int(np.ceil(np.log2(max(k, 1)))) + 2 > 63:
        raise ValueError(
            f"acc_bits={acc_bits} with K={k} overflows the int64 adder model"
        )

    moved = np.moveaxis(products, axis, -1)
    # Non-finite inputs are the exception; skip the mask + masked copy (two
    # full-size temporaries) when everything is finite.
    if np.isfinite(moved).all():
        bad = None
        safe = moved
    else:
        bad = ~np.isfinite(moved)
        safe = np.where(bad, 0.0, moved)

    # Anchor: the largest magnitude exponent in each reduction group.
    absval = np.abs(safe)
    amax = absval.max(axis=-1, keepdims=True)
    nonzero = amax > 0.0
    _, e = np.frexp(np.where(nonzero, amax, 1.0))
    anchor = e.astype(np.int64) - 1  # amax in [2^anchor, 2^(anchor+1))

    scale = acc_bits - 2 - anchor
    scaled = np.ldexp(safe, scale)
    if mode is RoundingMode.NEAREST_EVEN:
        ints = np.rint(scaled).astype(np.int64)
    else:
        ints = np.trunc(scaled).astype(np.int64)
    total = ints.sum(axis=-1)
    out = np.ldexp(total.astype(np.float64), -scale[..., 0])
    out = np.where(nonzero[..., 0], out, 0.0)

    if bad is not None:
        # IEEE-style propagation: any NaN -> NaN; inf of one sign -> inf;
        # mixed infs -> NaN.
        nan_in = np.isnan(moved).any(axis=-1)
        pinf = np.isposinf(moved).any(axis=-1)
        ninf = np.isneginf(moved).any(axis=-1)
        out = np.where(pinf & ~ninf, np.inf, out)
        out = np.where(ninf & ~pinf, -np.inf, out)
        out = np.where(nan_in | (pinf & ninf), np.nan, out)
    return out


def aligned_sum_groups(
    groups: list[np.ndarray],
    acc_bits: int | None = M3XU_ACC_BITS,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> np.ndarray:
    """Windowed reduction of pre-grouped addends along their shared last axis.

    Bit-identical to ``aligned_sum(np.concatenate(groups, axis=-1), axis=-1)``
    without materialising the concatenation: the anchor is the running
    maximum of the per-group maxima (max is associative), each group is
    aligned and rounded against that anchor exactly as the monolithic path
    would, and the integer partial sums accumulate into one preallocated
    int64 register (integer addition is exact and commutative). This is the
    reduction the fused MMA path uses: one group per multiplier-lane
    assignment plus one for the C operand, no ``(M, N, parts*K+1)`` tensor.

    Parameters
    ----------
    groups:
        float64 arrays broadcast-compatible except along the last axis,
        which is reduced across all groups jointly.
    acc_bits / mode:
        As for :func:`aligned_sum`.
    """
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    if acc_bits is None:
        return np.concatenate(groups, axis=-1).sum(axis=-1)
    k_total = sum(g.shape[-1] for g in groups)
    lead_shape = np.broadcast_shapes(*(g.shape[:-1] for g in groups))
    groups = [g for g in groups if g.shape[-1] > 0]
    if not groups:
        return np.zeros(lead_shape, dtype=np.float64)
    if acc_bits + int(np.ceil(np.log2(max(k_total, 1)))) + 2 > 63:
        raise ValueError(
            f"acc_bits={acc_bits} with K={k_total} overflows the int64 adder model"
        )
    if not all(np.isfinite(g).all() for g in groups):
        # Non-finite propagation is the slow corner; defer to the reference.
        return aligned_sum(
            np.concatenate(groups, axis=-1), axis=-1, acc_bits=acc_bits, mode=mode
        )

    amax: np.ndarray | None = None
    for g in groups:
        gmax = np.abs(g).max(axis=-1)
        amax = gmax if amax is None else np.maximum(amax, gmax)
    assert amax is not None
    nonzero = amax > 0.0
    _, e = np.frexp(np.where(nonzero, amax, 1.0))
    anchor = e.astype(np.int64) - 1  # amax in [2^anchor, 2^(anchor+1))

    scale = acc_bits - 2 - anchor
    total = np.zeros(lead_shape, dtype=np.int64)
    for g in groups:
        scaled = np.ldexp(g, scale[..., None])
        if mode is RoundingMode.NEAREST_EVEN:
            ints = np.rint(scaled).astype(np.int64)
        else:
            ints = np.trunc(scaled).astype(np.int64)
        total += ints.sum(axis=-1)
    out = np.ldexp(total.astype(np.float64), -scale)
    return np.where(nonzero, out, 0.0)


# ---------------------------------------------------------------------------
# Running-anchor windowed accumulation (the BitAccumulator discipline, as arrays)
# ---------------------------------------------------------------------------

#: Anchor value of an accumulator that has seen no nonzero addend yet. Far
#: below any exponent a finite-format product can produce, yet small enough
#: that ``top - _ANCHOR_SENTINEL`` cannot overflow int64 for |top| < 2**61.
_ANCHOR_SENTINEL = np.int64(-(1 << 52))


def _rne_shift_positive(sig: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Round-half-even of ``sig >> shift`` for ``sig >= 0``, ``1 <= shift``.

    The fused three-term form of the RNE decision table: with
    ``half = 2**(shift-1)`` and ``b = (sig >> shift) & 1`` (the quotient's
    parity), ``(sig + half - 1 + b) >> shift`` rounds up exactly when the
    remainder exceeds ``half``, or ties with an odd quotient — one shift
    chain instead of the mask/compare cascade of
    :func:`~repro.types.rounding.round_significand`. Valid in any integer
    width as long as ``sig + 2**(shift-1)`` has headroom and ``shift``
    stays below the bit width; callers pre-clamp the shifts so both hold.
    """
    one = sig.dtype.type(1)
    b = (sig >> shift) & one
    bias = ((one << (shift - one)) - one) + b
    return (sig + bias) >> shift


def _merge_segments(
    aligned_flat: np.ndarray,
    rescale_flat: np.ndarray,
    n_slots: int,
    n_rows: int,
    mode: RoundingMode,
) -> np.ndarray:
    """Merge constant-anchor segments row by row, re-rounding at raises.

    ``aligned_flat`` holds the signed window-aligned addends of ``n_rows``
    reduction rows laid out contiguously (``n_slots`` per row); a positive
    ``rescale_flat`` entry marks an anchor raise. Segment totals come from
    one :func:`np.add.reduceat` over the flat buffer — a segment may spill
    past its row's end into the *leading* slots of the next row, but those
    sit before that row's first anchor raise and are therefore exactly
    zero, so the spill adds nothing. Float32 addends are reduced with a
    float64 accumulator, which the caller only allows while every row
    total stays below ``2**53``; int64 addends are summed as integers.

    Events are then merged rank by rank (a row's e-th anchor raise) on
    compacted index lists with the re-round-on-anchor-raise rule; total
    merge work is proportional to the event count. The first event of
    every row merges into a zero partial sum — rounding zero is a no-op,
    so the first raise's sentinel-relative shift never matters.
    """
    mask = rescale_flat > 0
    event_idx = np.flatnonzero(mask)
    value = np.zeros(n_rows, dtype=np.int64)
    if not event_idx.size:
        return value
    if aligned_flat.dtype == np.float32:
        seg = np.add.reduceat(aligned_flat, event_idx, dtype=np.float64)
        seg = seg.astype(np.int64)
    else:
        seg = np.add.reduceat(aligned_flat, event_idx)
    shifts = rescale_flat[event_idx].astype(np.int64, copy=False)
    # Events are row-grouped (flatnonzero returns sorted indices), so a
    # row's e-th event sits at ``starts[row] + e`` in the compacted
    # arrays. Merging rank by rank then needs no sort and no per-event
    # rescans: iteration ``e`` selects the rows with more than ``e``
    # events — total work is the event count, not n_rows * e_max.
    # Per-row event counts from the (sorted) event stream — a bincount
    # over 2ish events/row beats a boolean reduction over every slot.
    counts = np.bincount(event_idx // n_slots, minlength=n_rows)
    ends = np.cumsum(counts)
    starts = ends - counts
    e_max = int(counts.max())
    rne = mode is RoundingMode.NEAREST_EVEN
    # Shift clamps, hoisted over the whole event stream: magnitudes stay
    # below 2**62 (the caller's int64 headroom check), so the RNE bias
    # cannot overflow, and shift 62 (round_significand's
    # everything-rounds-away point) maps to 63 under RNE and is already
    # exact under truncation.
    if e_max > 1:
        np.clip(shifts, 1, 63, out=shifts)
        if rne:
            np.copyto(shifts, np.int64(63), where=shifts >= 62)
    # A row's rank-0 event merges into a zero partial sum, so its shift
    # is skipped outright.
    rows0 = np.flatnonzero(counts)
    value[rows0] = seg[starts[rows0]]
    for e in range(1, e_max):
        r = np.flatnonzero(counts > e)
        sel = starts[r] + e
        partial = value[r]
        neg = partial < 0
        mag = np.abs(partial)
        if rne:
            mag = _rne_shift_positive(mag, shifts[sel])
        else:
            mag = mag >> shifts[sel]
        np.negative(mag, out=mag, where=neg)
        value[r] = mag + seg[sel]
    return value


#: Sentinel for the packed-float32 path's int16 exponent arrays.
_SENTINEL_I16 = np.int16(-(1 << 14))

#: Largest |LSB weight| the packed-float32 path accepts; keeps every
#: exponent-side intermediate (top, rescale, rel) inside int16 next to
#: the ``-2**14`` sentinel.
_F32_LSB_LIMIT = 1 << 13


def _check_window_depth(acc_bits: int, n_slots: int) -> None:
    """Raise :class:`ValueError` unless an *acc_bits* window can reduce
    *n_slots* addends per row without overflowing its int64 partial sums
    (:func:`segmented_windowed_sum_f32`'s limits)."""
    if acc_bits < 8:
        raise ValueError("accumulator width must be >= 8 bits")
    if acc_bits + int(np.ceil(np.log2(max(n_slots, 1)))) + 1 > 63:
        raise ValueError(
            f"acc_bits={acc_bits} with {n_slots} slots overflows the int64 window"
        )


def segmented_windowed_sum_f32(
    signed_sig: np.ndarray,
    lsb_exp: np.ndarray,
    acc_bits: int = M3XU_ACC_BITS,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate addend slots along the last axis with a running anchor.

    Each slot contributes ``signed_sig * 2**lsb_exp`` to a W-bit shifted
    integer window, in slot order, exactly as
    :class:`~repro.mxu.bitlevel.BitAccumulator` processes the same
    sequence one addend at a time: zero slots are skipped, a slot whose
    MSB exceeds the running anchor re-rounds the partial sum by the
    anchor shift, and every addend is aligned to the current window LSB
    with *mode* rounding. The slot walk becomes a segmented exact
    reduction whose step count is the number of *anchor raises*:

    1. The anchor trajectory is the masked running maximum of the slot
       MSB exponents, known before any addition.
    2. The partial sum is re-rounded **only** at slots that raise the
       anchor; between raises the discipline adds already-aligned
       integers, which is associative, so each constant-anchor run is a
       *segment* with an exact integer total (one ``np.add.reduceat``).
    3. Segment totals are merged in order with the
       re-round-on-anchor-raise rule (:func:`_merge_segments`).

    The bit-level engine's partial products are at most 24-bit integers
    (12-bit operand halves), so a *signed float32* carries each addend
    exactly — sign, significand and (via the exponent field) its own bit
    length:

    * the slot MSB exponent is read straight out of the IEEE exponent
      bits (biased exponent minus 127 is the bit length minus one for
      any positive integer, and the field ignores the sign bit);
    * exact alignment is one :func:`np.ldexp` (``sig * 2**rel`` with
      ``|sig| < 2**24`` and ``rel <= acc_bits - 1`` never leaves float32's
      exact-integer range);
    * the few slots that shift *down* (``rel < 0``) are rounded on a
      compacted index list in int32 and patched back;
    * segment totals are reduced with a float64 accumulator while
      ``n_slots * 2**acc_bits <= 2**53`` keeps them exact; deeper
      reductions sum the aligned addends (integers below
      ``2**acc_bits``) in int64.

    The property suite holds the result bit-identical to a
    :class:`~repro.mxu.bitlevel.BitAccumulator` run over each row.

    Parameters
    ----------
    signed_sig:
        ``float32`` array, each element an integer with ``|sig| < 2**24``
        (negative zero is treated as zero). Last axis is the slot axis.
    lsb_exp:
        Integer LSB weights, ``|lsb_exp| <= 2**13``, same shape.
    acc_bits:
        Window width W (48 in M3XU). ``acc_bits + ceil(log2(S)) + 1``
        must stay <= 63 so the int64 partial sums cannot overflow.
    mode:
        Rounding applied to alignment and rescale shifts.

    Returns
    -------
    tuple[np.ndarray, np.ndarray]
        ``(value, window_lsb)``: the signed int64 window contents and the
        binary weight of the window's LSB, per row; the represented
        result is ``value * 2**window_lsb``. A row without a nonzero slot
        gives 0 and ``_ANCHOR_SENTINEL - acc_bits + 1``.
    """
    sig_arr = np.asarray(signed_sig)
    lsb_in = np.asarray(lsb_exp)
    if sig_arr.dtype != np.float32:
        raise TypeError("packed significands must be float32")
    if sig_arr.shape != lsb_in.shape:
        raise ValueError("signed_sig and lsb_exp must have identical shapes")
    if not sig_arr.ndim:
        raise ValueError("addend slots must have at least one axis")
    n_slots = sig_arr.shape[-1]
    _check_window_depth(acc_bits, n_slots)
    lead = sig_arr.shape[:-1]
    if n_slots == 0:
        return (
            np.zeros(lead, dtype=np.int64),
            np.full(lead, _ANCHOR_SENTINEL - acc_bits + 1, dtype=np.int64),
        )
    lsb_arr = lsb_in.astype(np.int16, copy=False)
    if lsb_arr.size and (
        int(lsb_arr.min()) < -_F32_LSB_LIMIT or int(lsb_arr.max()) > _F32_LSB_LIMIT
    ):
        raise ValueError("packed path requires |lsb_exp| <= 2**13")
    sig2 = np.ascontiguousarray(sig_arr).reshape(-1, n_slots)
    lsb2 = np.ascontiguousarray(lsb_arr).reshape(-1, n_slots)

    # MSB exponents from the IEEE exponent field; +-0 maps to the
    # sentinel so zero slots never move the anchor.
    nz = sig2 != 0
    biased = (sig2.view(np.int32) >> 23) & np.int32(0xFF)
    top = lsb2 + biased.astype(np.int16)
    top -= np.int16(127)
    top = np.where(nz, top, _SENTINEL_I16)
    if n_slots <= 32:
        # Slot-major running maximum: ufunc accumulate walks a scalar
        # inner loop per row, but with few slots and many rows the
        # transposed walk is a handful of full-width SIMD passes.
        top_t = np.ascontiguousarray(top.T)
        for k in range(1, n_slots):
            np.maximum(top_t[k], top_t[k - 1], out=top_t[k])
        anchor = np.ascontiguousarray(top_t.T)
    else:
        anchor = np.maximum.accumulate(top, axis=-1)
    rescale = np.empty_like(anchor)
    rescale[:, 0] = anchor[:, 0] - _SENTINEL_I16
    np.subtract(anchor[:, 1:], anchor[:, :-1], out=rescale[:, 1:])

    # Window-relative alignment. Left shifts stay exact in float32; the
    # upward clip only ever fires on zero slots (a nonzero slot has
    # anchor >= top, hence rel <= acc_bits - 1), where ldexp keeps +-0.
    rel = np.subtract(lsb2, anchor, dtype=np.int16)
    rel += np.int16(acc_bits - 1)
    aligned = np.ldexp(sig2, np.maximum(rel, np.int16(0)).astype(np.int32))
    need = np.flatnonzero((rel < 0).reshape(-1))
    if need.size:
        # Compact rounding of the downward shifts: |sig| < 2**24 keeps
        # the fused RNE bias inside int32, and every shift >= 31 rounds
        # the whole addend away, so the clamp at 31 is lossless.
        f_flat = sig2.reshape(-1)[need]
        neg = f_flat < 0
        mag = np.abs(f_flat).astype(np.int32)
        shift = np.clip(
            -rel.reshape(-1)[need].astype(np.int32), np.int32(1), np.int32(31)
        )
        if mode is RoundingMode.NEAREST_EVEN:
            rounded = _rne_shift_positive(mag, shift)
        else:
            rounded = mag >> shift
        patched = rounded.astype(np.float32)  # repro: allow[PS105]
        np.negative(patched, out=patched, where=neg)
        aligned.reshape(-1)[need] = patched

    # Aligned addends stay below 2**acc_bits, so a segment total (and
    # every float64 intermediate while reducing it) stays below
    # n_slots * 2**acc_bits; past 2**53 the segments are summed in int64.
    addends = aligned.reshape(-1)
    if n_slots * (1 << acc_bits) > (1 << 53):
        addends = addends.astype(np.int64)
    n_rows = sig2.shape[0]
    value = _merge_segments(
        addends, rescale.reshape(-1), n_slots, n_rows, mode
    ).reshape(lead)
    last = anchor[:, -1]
    window_last = np.where(
        last == _SENTINEL_I16, _ANCHOR_SENTINEL, last.astype(np.int64)
    ) - (acc_bits - 1)
    return value, window_last.reshape(lead)


def int_window_to_float(
    value: np.ndarray,
    window_lsb: np.ndarray,
    fmt: FloatFormat,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> np.ndarray:
    """Round ``value * 2**window_lsb`` to *fmt*, vectorized and bit-exact.

    The array counterpart of rounding the window contents through
    :func:`~repro.arith.exact.round_fraction`: one integer rounding onto
    the format's (subnormal-floored) grid, an exact ``ldexp``, and the
    format's overflow saturation. ``value == 0`` yields +0.0 (the
    canonical zero of the bit-level accumulator); a nonzero value that
    rounds away returns a signed zero, matching the exact reference.
    """
    value_arr = np.asarray(value, dtype=np.int64)
    lsb_arr = np.asarray(window_lsb, dtype=np.int64)
    value_arr, lsb_arr = np.broadcast_arrays(value_arr, lsb_arr)
    neg = value_arr < 0
    mag = np.abs(value_arr)
    zero = mag == 0
    # Bit length inline (zero slots borrow length 1; their output is
    # forced to +0.0 below): frexp is exact under 2**53; above that a
    # value just below a power of two can round up across it, which the
    # shift check corrects, so it is skipped when no value can need it.
    bl = np.frexp((mag + zero).astype(np.float64))[1].astype(np.int64)
    if int(mag.max(initial=0)) >= (1 << 53):
        bl -= (mag + zero) >> np.minimum(bl - 1, np.int64(63)) == 0
    msb_exp = lsb_arr + bl - 1
    grid = np.maximum(msb_exp, fmt.emin) - fmt.mantissa_bits
    drop = grid - lsb_arr
    # drop <= 0 means the window LSB already sits on or above the grid:
    # mag then carries at most mantissa_bits + 1 bits and is exact below.
    # The fused shifts reproduce round_significand bit for bit: shift 0
    # passes mag through, shifts >= 62 round everything away (mag < 2**62,
    # so an RNE shift of 63 is exactly 0), and the in-between shifts are
    # the standard add-half-minus-one-plus-parity form.
    dropc = np.maximum(drop, 0)
    if mode is RoundingMode.NEAREST_EVEN:
        s = np.where(dropc >= 62, np.int64(63), dropc)
        mag_r = np.where(s > 0, _rne_shift_positive(mag, np.maximum(s, 1)), mag)
    else:
        mag_r = np.where(dropc >= 62, 0, mag >> np.minimum(dropc, np.int64(61)))
    exp_r = np.where(drop > 0, grid, lsb_arr)
    with np.errstate(over="ignore"):
        out = np.asarray(np.ldexp(mag_r.astype(np.float64), exp_r))
    # mag_r >= 0, so overflow is one-sided and the sign is applied last.
    over = out > fmt.max_value
    if mode is RoundingMode.NEAREST_EVEN:
        np.copyto(out, np.inf, where=over)
    else:
        np.copyto(out, fmt.max_value, where=over)
    np.negative(out, out=out, where=neg)
    np.copyto(out, 0.0, where=zero)
    return out
