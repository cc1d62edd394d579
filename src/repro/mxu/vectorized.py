"""Array-at-a-time bit-level M3XU datapath (the vectorized engine).

:mod:`repro.mxu.bitlevel` executes the RTL-fidelity FP32/FP32C datapath
one scalar dot product at a time — perfect as an oracle, far too slow for
campaign-scale work. This module re-implements the same datapath on whole
tiles, bit-identically:

* **Splitting** (Fig. 3a, Eq. 3-8) — the sign/exponent/mantissa fields of
  every FP32 operand are read in one shot through a ``uint32`` bit view
  (:func:`fp32_bit_fields`), and the 12-bit H/L slices are pure integer
  shifts/masks of those arrays. Subnormals (no hidden bit), ±0 and the
  finiteness/representability contract are handled by masks and upfront
  checks, exactly as the scalar :func:`~repro.mxu.bitlevel.split_fp32_bits`.
* **Multiplying** — every 12x12-bit multiplier lane of one MMA becomes a
  single elementwise *float32* product over the ``(M, N, K)`` tile
  (exact: the pre-signed slices carry at most 12 bits each), written
  straight into a strided column view of one preallocated ``(M, N,
  slots)`` buffer ordered exactly as the scalar loop visits the slots
  (k-major, lane-minor).
* **Shifted 48-bit accumulation** (Fig. 3b) — the packed product slots
  feed :func:`~repro.arith.accumulator.segmented_windowed_sum_f32`, the
  segmented exact reformulation of the
  :class:`~repro.mxu.bitlevel.BitAccumulator` discipline (masked-cummax
  anchor trajectory, exact per-segment sums via a float64 ``reduceat``,
  re-round-on-anchor-raise merge), proven bit-identical to the
  sequential :func:`~repro.arith.accumulator.sequential_windowed_sum`
  oracle by the property suite (accumulations too deep for the packed
  kernel's exactness bound unpack to the general integer
  :func:`~repro.arith.accumulator.segmented_windowed_sum`). The single-anchor
  :func:`~repro.arith.accumulator.aligned_sum_groups` kernel is *not*
  reused for this: it rounds each addend against the final anchor, which
  diverges from the sequential discipline once the exponent span exceeds
  the 48-bit window, and the acceptance bar here is strict bit-identity
  with the scalar oracle. The C operand is the last slot of every MMA,
  so it is folded in afterwards, one ``(M, N)`` plane per chunk
  (:func:`_chain_c_merge`).
* **Complex sign flips** (Eq. 9) — the imag*imag subtraction negates the
  B-side slices of that pairing in the real accumulator.

The vector engine is one kernel per mode — :func:`chained_vector_fp32`
and :func:`chained_vector_fp32c` — evaluating a whole K-chain of MMAs;
a single MMA is the one-chunk chain. Engine selection:
``REPRO_BITLEVEL=vector`` (default) or ``scalar``
(:func:`resolve_bitlevel_engine`); the scalar functions here walk the
same slot ordering through :class:`~repro.mxu.bitlevel.BitAccumulator`
and are retained as the oracle the property suite compares against.
:class:`BitLevelMXU` packages either engine behind the ``mma``/
``mma_parts`` contract so ``TiledGEMM(fused=False)``, ABFT tile
recomputation and the fault campaigns run it unchanged, and both engines
accept a :class:`ProductFault` — a bit flip in one multiplier-lane
product, addressed by flat slot index — for campaign injection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..arith.accumulator import (
    _ANCHOR_SENTINEL,
    _rne_shift_positive,
    int_window_to_float,
    segmented_windowed_sum,
    segmented_windowed_sum_f32,
)
from ..types.formats import FP32, FloatFormat
from ..types.quantize import quantize, quantize_complex
from ..types.rounding import RoundingMode, round_significand
from .config import M3XU_CONFIG, MXUConfig
from .modes import MXUMode, step_plan

__all__ = [
    "BITLEVEL_ENV",
    "NonFiniteOperandError",
    "resolve_bitlevel_engine",
    "fp32_bit_fields",
    "split_fp32_fields",
    "ProductFault",
    "product_slot_count",
    "PRODUCT_BITS",
    "fp32_lane_fields",
    "chained_vector_fp32",
    "chained_vector_fp32c",
    "scalar_mma_fp32",
    "scalar_mma_fp32c",
    "BitLevelMXU",
]

#: Environment switch: ``REPRO_BITLEVEL=scalar`` pins the scalar oracle.
BITLEVEL_ENV = "REPRO_BITLEVEL"


class NonFiniteOperandError(ValueError):
    """A bit-level MMA was handed a non-finite operand.

    The split/multiply/shift/accumulate datapath is defined on finite
    FP32 values only — infinities and NaNs have no slice encoding, so
    both engines reject them upfront (:func:`fp32_bit_fields`). The
    distinct type exists for the fault campaigns: an injected upset can
    legitimately drive a chunk result to ±inf/NaN, and the next chunk's
    rejection of that operand is a *detected* unrecoverable outcome
    (:class:`repro.resilience.campaign.Outcome` ``CRASH``), not a bug.
    """

_FIELD_SHIFT_EXP = 23
_FIELD_SHIFT_SIGN = 31
_MANT_MASK = 0x7FFFFF
_EXP_MASK = 0xFF
_LO_MASK = 0xFFF

#: (a slice, b slice, accumulator weight shift) — 0 = H, 1 = L. Identical
#: to the scalar reference's schedule: step 1 is H*H (shift 24) and L*L
#: (shift 0), step 2 the cross products (shift 12).
_LANE_SCHEDULE = ((0, 0, 24), (1, 1, 0), (0, 1, 12), (1, 0, 12))

#: FP32C component schedule (Fig. 3c): (a component, b component, negate,
#: accumulator) — rr and the negated ii feed the real register, ri/ir the
#: imaginary one. Order matters: it fixes the global product-slot index.
_COMPONENT_SCHEDULE = (
    ("real", "real", 0, "real"),
    ("imag", "imag", 1, "real"),
    ("real", "imag", 0, "imag"),
    ("imag", "real", 0, "imag"),
)

_LANES_PER_PAIR = len(_LANE_SCHEDULE)  # product slots per (a, b) element pair
PRODUCT_BITS = 24  # a 12x12-bit multiplier lane result

#: One operand's multiplier-lane fields ``(hi, lo, exp)`` (:func:`fp32_lane_fields`).
LaneFields = tuple[np.ndarray, np.ndarray, np.ndarray]

#: The chained kernel's batching: output columns x chunks per product
#: reduction, sized to keep the slot buffers cache-resident. Neither
#: changes a bit.
_CHAIN_BLOCK = 64
_CHAIN_GROUP = 2


def resolve_bitlevel_engine(engine: str | None = None) -> str:
    """Resolve the bit-level engine name: explicit arg > env > "vector"."""
    raw = engine if engine is not None else os.environ.get(BITLEVEL_ENV, "")
    value = raw.strip().lower() or "vector"
    if value not in ("vector", "scalar"):
        raise ValueError(
            f"unknown bit-level engine {value!r} "
            f"({BITLEVEL_ENV} takes 'vector' or 'scalar')"
        )
    return value


# ---------------------------------------------------------------------------
# Vectorized FP32 field splitting (the uint32 bit view)
# ---------------------------------------------------------------------------


def fp32_bit_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sign, biased_exponent, mantissa)`` int64 arrays of FP32 values.

    The vector path's data-assignment front end: one float32 store and a
    ``uint32`` bit view replace the per-element ``encode`` round trip.
    Raises :class:`NonFiniteOperandError` for non-finite input (the
    bit-level model is defined on finite operands) and plain
    :class:`ValueError` for finite values that are not exactly
    FP32-representable (quantise first — same contract as
    :func:`repro.types.bits.encode`).
    """
    x64 = np.asarray(x, dtype=np.float64)
    if not bool(np.all(np.isfinite(x64))):
        raise NonFiniteOperandError("bit-level model handles finite operands")
    # The float32 round trip is the intended storage narrowing of the FP32
    # register file, checked exact below.
    x32 = x64.astype(np.float32)  # repro: allow[PS105]
    if not bool(np.all(x32.astype(np.float64) == x64)):
        raise ValueError("input contains values not representable in FP32")
    bits = np.atleast_1d(x32).view(np.uint32).reshape(x32.shape)
    sign = (bits >> np.uint32(_FIELD_SHIFT_SIGN)).astype(np.int64)
    biased = ((bits >> np.uint32(_FIELD_SHIFT_EXP)) & np.uint32(_EXP_MASK)).astype(
        np.int64
    )
    mant = (bits & np.uint32(_MANT_MASK)).astype(np.int64)
    return sign, biased, mant


def split_fp32_fields(
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Fig. 3(a) wiring: ``(sign, biased_exp, hi_sig, lo_sig)``.

    The high slice is ``hidden | m[22:12]`` (hidden bit only for normal
    values), the low slice ``m[11:0]``; both share the operand's sign and
    exponent fields, exactly like the scalar
    :func:`~repro.mxu.bitlevel.split_fp32_bits`.
    """
    sign, biased, mant = fp32_bit_fields(x)
    hidden = (biased != 0).astype(np.int64)
    hi = (hidden << 11) | (mant >> 12)
    lo = mant & np.int64(_LO_MASK)
    return sign, biased, hi, lo


def _effective_exp(biased: np.ndarray) -> np.ndarray:
    """Unbiased slice exponent: biased - 127, or the subnormal -126."""
    return np.where(biased > 0, biased - 127, np.int64(-126))


def _c_slot(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The C operand as one accumulator slot: (sign, 24-bit sig, LSB exp)."""
    sign, biased, mant = fp32_bit_fields(c)
    sig = np.where(biased > 0, mant | np.int64(1 << 23), mant)
    lsb = _effective_exp(biased) - 23
    return sign, sig, lsb


# ---------------------------------------------------------------------------
# Product-stage fault injection (campaign support)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductFault:
    """A bit flip in one 12x12-bit multiplier lane product.

    ``slot`` is the flat product index in scalar execution order —
    k-major, then (for FP32C) component-schedule order, then lane — so
    ``slot = k*4 + lane`` for FP32 and ``slot = k*16 + component*4 +
    lane`` for FP32C (see :func:`product_slot_count`). ``element`` is the
    output element whose dot-product unit the upset hits, and ``bit``
    (0..23) the flipped bit of the 24-bit product significand.
    """

    slot: int
    element: tuple[int, int]
    bit: int

    def __post_init__(self) -> None:
        if not (0 <= self.bit < PRODUCT_BITS):
            raise ValueError(f"product bit must be in [0, {PRODUCT_BITS})")
        if self.slot < 0:
            raise ValueError("product slot must be non-negative")


def product_slot_count(mode: MXUMode, k: int) -> int:
    """Number of multiplier-lane products one output element sees per MMA."""
    if mode is MXUMode.FP32:
        return _LANES_PER_PAIR * int(k)
    if mode is MXUMode.FP32C:
        return _LANES_PER_PAIR * len(_COMPONENT_SCHEDULE) * int(k)
    raise ValueError(f"bit-level engines model fp32/fp32c only, not {mode.value}")


def _check_fault(
    fault: ProductFault, n_slots: int, out_shape: tuple[int, int]
) -> None:
    if fault.slot >= n_slots:
        raise ValueError(f"product slot {fault.slot} out of range ({n_slots} slots)")
    m, n = fault.element
    if not (0 <= m < out_shape[0] and 0 <= n < out_shape[1]):
        raise ValueError(f"fault element {fault.element} outside output {out_shape}")


# ---------------------------------------------------------------------------
# Vector engine
# ---------------------------------------------------------------------------


def _require_tile(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("bit-level MMA takes 2-D operand tiles")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"K mismatch: A{a.shape} @ B{b.shape}")
    return a.shape[0], a.shape[1], b.shape[1]


def _alloc_slots(m: int, n: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Preallocated packed ``(signed sig, lsb)`` slot buffers.

    One ``(M, N, slots)`` allocation per tensor — the product lanes are
    written straight into strided column views, so no
    ``stack``/``concatenate`` copies the slot tensors a second time.
    Significands are *signed float32*: a 12x12-bit lane
    product is at most 24 bits, which float32 carries exactly together
    with its sign (the sign of an IEEE product is the XOR of the operand
    signs even for zeros, so no separate sign tensor is needed), and the
    float multiply is the cheapest SIMD path numpy has. LSB weights live
    in int16 — FP32 slice exponents span a few hundred either way.
    """
    return (
        np.empty((m, n, n_cols), dtype=np.float32),
        np.empty((m, n, n_cols), dtype=np.int16),
    )


def _signed_parts(
    sign: np.ndarray, hi: np.ndarray, lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The 12-bit slices as float32 carrying the operand's sign (exact:
    < 2**12). The sign bit is set even on a zero slice (``-0.0``), so
    every lane product, zero or not, carries the sign the scalar datapath
    gives it (the XOR of the operand signs) — the sign a product-stage
    fault flipping a bit into a zero product must see."""
    sign_bit = (sign << _FIELD_SHIFT_SIGN).astype(np.uint32)
    hi32 = np.asarray(hi.astype(np.float32))  # repro: allow[PS105]
    lo32 = np.asarray(lo.astype(np.float32))  # repro: allow[PS105]
    for part in (hi32, lo32):
        bits = part.view(np.uint32)
        np.bitwise_or(bits, sign_bit, out=bits)
    return hi32, lo32


def fp32_lane_fields(x: np.ndarray) -> LaneFields:
    """One operand's multiplier-lane fields: ``(hi, lo, exp)``.

    ``hi``/``lo`` are the pre-signed float32 12-bit slices
    (:func:`_signed_parts`) and ``exp`` the int16 effective slice
    exponent — everything :func:`_fill_lane_slots` needs, derived once.
    This is the artefact the operand split cache stores for the vector
    engine: the fields depend only on the operand's bytes, so a cached
    copy is bit-identical to a fresh split by construction.
    """
    sign, biased, hi, lo = split_fp32_fields(x)
    hi_signed, lo_signed = _signed_parts(sign, hi, lo)
    return hi_signed, lo_signed, _effective_exp(biased).astype(np.int16)


def _fill_lane_slots(
    sig: np.ndarray,
    lsb: np.ndarray,
    a_fields: LaneFields,
    b_fields: LaneFields,
    base: int,
    stride: int,
    negate: int = 0,
) -> None:
    """Write one (A, B) component pairing's multiplier lanes into the slot
    buffers at columns ``base + lane + k*stride`` (k-major, lane-minor —
    the scalar loop's visit order). Operands arrive as precomputed
    :func:`fp32_lane_fields`.

    Each 12x12-bit lane is a single broadcast float32 multiply
    ``(M, 1, K) x (1, N, K)`` evaluated directly into the strided column
    view — exact, since both slices carry at most 12 bits — with the
    product sign folded into the pre-signed slices (``negate`` flips the
    B side, implementing the FP32C imag*imag subtraction; negating the
    pre-signed slice is bit-identical to re-signing the raw slice, IEEE
    multiply signs being XORs even for zeros); every lane's product LSB
    sits at ``2^(Ea + Eb - 46 + shift)``.
    """
    ah, al, ae = a_fields
    bh, bl, be = b_fields
    a_parts = (ah, al)
    b_parts = (np.negative(bh), np.negative(bl)) if negate else (bh, bl)
    k = ah.shape[1]
    pair_exp = ae[:, None, :] + be.T[None, :, :]
    for lane, (ia, ib, shift) in enumerate(_LANE_SCHEDULE):
        col = slice(base + lane, base + stride * k, stride)
        np.multiply(
            a_parts[ia][:, None, :], b_parts[ib].T[None, :, :], out=sig[:, :, col]
        )
        np.add(pair_exp, np.int16(shift - 46), out=lsb[:, :, col])


def _flip_product_bit(sig: np.ndarray, element: tuple[int, int], slot: int, bit: int) -> None:
    """XOR one bit of a packed slot's 24-bit product significand."""
    em, en = element
    val = float(sig[em, en, slot])
    mag = int(abs(val)) ^ (1 << bit)
    sig[em, en, slot] = np.float32(-mag if np.signbit(val) else mag)


def _windowed_sum_packed(
    sig: np.ndarray,
    lsb: np.ndarray,
    acc_bits: int,
    rounding: RoundingMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch packed slots to the fastest bit-identical reduction.

    The float32 kernel needs ``slots * 2**acc_bits`` inside the exact
    float64 range; unusually deep accumulations (huge K at full 48-bit
    width) unpack to the general integer kernel instead.
    """
    if sig.shape[-1] * (1 << acc_bits) <= (1 << 53):
        return segmented_windowed_sum_f32(sig, lsb, acc_bits=acc_bits, mode=rounding)
    return segmented_windowed_sum(
        np.signbit(sig).astype(np.int8),
        np.abs(sig).astype(np.int64),
        lsb,
        acc_bits=acc_bits,
        mode=rounding,
    )


def _chain_c_merge(
    value_p: np.ndarray,
    anchor_p: np.ndarray,
    c: np.ndarray,
    acc_bits: int,
    rounding: RoundingMode,
) -> np.ndarray:
    """Fold the C operand into a chunk's precomputed product reduction.

    ``value_p``/``anchor_p`` are the windowed sum and final anchor of the
    chunk's *product* slots (``_ANCHOR_SENTINEL`` where all products were
    zero). The C operand is the last slot of the accumulation order, so
    finishing the chunk is one more step of the sequential discipline:
    align C against ``max(anchor_p, c_top)`` (below-window addends round
    like any other slot), re-round the product partial iff C raises a
    non-empty anchor (an empty partial is zero, so its re-round is a
    no-op) — same shift clamps as the segmented merge — add, then round
    the window to FP32.
    """
    cs, csig, clsb = _c_slot(c)
    nzc = csig > 0
    # bit_length via frexp: C significands are < 2**24, exact in float64.
    ctop = clsb + np.frexp(csig.astype(np.float64))[1] - 1
    ctop = np.where(nzc, ctop, _ANCHOR_SENTINEL)
    anchor = np.maximum(anchor_p, ctop)
    rel = clsb - anchor + (acc_bits - 1)
    aligned = np.zeros_like(csig)
    pos = nzc & (rel >= 0)
    np.copyto(aligned, csig << np.clip(rel, 0, 63), where=pos)
    below = nzc & ~pos
    if np.any(below):
        aligned[below] = round_significand(csig[below], -rel[below], rounding)
    np.negative(aligned, out=aligned, where=cs != 0)

    value = np.array(value_p)
    fix = np.flatnonzero(
        ((ctop > anchor_p) & (anchor_p != _ANCHOR_SENTINEL)).reshape(-1)
    )
    if fix.size:
        flat = value.reshape(-1)
        partial = flat[fix]
        neg = partial < 0
        mag = np.where(neg, -partial, partial)
        # Magnitudes stay below 2**53, so shift 62 (the reference's
        # everything-rounds-away point) maps to 63 under RNE and is
        # already exact under truncation.
        shift = np.clip((ctop - anchor_p).reshape(-1)[fix], 1, 63)
        if rounding is RoundingMode.NEAREST_EVEN:
            np.copyto(shift, np.int64(63), where=shift >= 62)
            mag = _rne_shift_positive(mag, shift)
        else:
            mag = mag >> shift
        np.negative(mag, out=mag, where=neg)
        flat[fix] = mag
    value += aligned
    # anchor is _ANCHOR_SENTINEL exactly when both sides were empty, which
    # is also the sentinel window convention — no special case needed.
    window = anchor - (acc_bits - 1)
    return int_window_to_float(value, window, FP32)


def _k_window(
    fields: LaneFields, k0: int, k1: int, pad: int, axis: int
) -> LaneFields:
    """Lane fields of the K range ``[k0, k1)``, zero-padded by *pad* along K.

    *axis* is the K axis (1 for A fields, 0 for B fields). Zero products
    are non-events in the window discipline, so a chunk padded to full
    width is bit-identical to the short one; a zero's fields are
    ``hi = lo = 0`` with effective exponent -126.
    """
    window = (slice(None), slice(k0, k1)) if axis == 1 else (slice(k0, k1), slice(None))
    hi, lo, exp = (f[window] for f in fields)
    if pad:
        width = ((0, 0), (0, pad)) if axis == 1 else ((0, pad), (0, 0))
        hi, lo = np.pad(hi, width), np.pad(lo, width)
        exp = np.pad(exp, width, constant_values=-126)
    return hi, lo, exp


def _chain_partials(
    a_comps: Sequence[LaneFields],
    b_comps: Sequence[np.ndarray],
    registers: Sequence[Sequence[tuple[int, int, int]]],
    faults: Sequence[ProductFault | None],
    k_chunk: int,
    acc_bits: int,
    rounding: RoundingMode,
    block: int,
    group: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every chunk's product-slot reduction, per accumulation register.

    *a_comps* are the A operand components' lane fields over the whole K
    range, *b_comps* the dense B components ``(K, N)``. Each register is a
    list of ``(A component, B component, negate)`` pairings; they fill the
    register's slot buffer at stride ``4 * len(pairings)`` — k-major, then
    pairing, then lane, the scalar loop's visit order. *faults* holds each
    register's product fault in register-local slot numbering; it is
    flipped in the buffer of the column block and chunk group that hold
    that slot. Returns, per register, the ``(value, anchor)`` int64 arrays
    of shape ``(chunks, M, N)``: each chunk's windowed product sum and its
    final anchor (``_ANCHOR_SENTINEL`` where all products were zero).
    """
    m_dim, k_total = a_comps[0][0].shape
    n_dim = b_comps[0].shape[1]
    n_chunks = -(-k_total // k_chunk)
    # Chunk-major layout: the sequential merge loop walks whole (M, N)
    # planes, so keep each plane contiguous.
    out = [
        (
            np.empty((n_chunks, m_dim, n_dim), dtype=np.int64),
            np.empty((n_chunks, m_dim, n_dim), dtype=np.int64),
        )
        for _ in registers
    ]
    for j0 in range(0, n_dim, block):
        j1 = min(n_dim, j0 + block)
        b_fields = [fp32_lane_fields(np.ascontiguousarray(x[:, j0:j1])) for x in b_comps]
        for g0 in range(0, n_chunks, group):
            n_g = min(group, n_chunks - g0)
            kg0 = g0 * k_chunk
            kg1 = min(k_total, (g0 + n_g) * k_chunk)
            pad = n_g * k_chunk - (kg1 - kg0)
            af_g = [_k_window(f, kg0, kg1, pad, axis=1) for f in a_comps]
            bf_g = [_k_window(f, kg0, kg1, pad, axis=0) for f in b_fields]
            for pairings, fault, (value_p, anchor_p) in zip(registers, faults, out):
                stride = _LANES_PER_PAIR * len(pairings)
                spc = stride * k_chunk  # product slots per chunk
                sig, lsb = _alloc_slots(m_dim, j1 - j0, n_g * spc)
                for i, (ia, ib, negate) in enumerate(pairings):
                    _fill_lane_slots(
                        sig, lsb, af_g[ia], bf_g[ib],
                        base=i * _LANES_PER_PAIR, stride=stride, negate=negate,
                    )
                if fault is not None:
                    col = fault.slot - kg0 * stride
                    em, en = fault.element
                    if 0 <= col < (kg1 - kg0) * stride and j0 <= en < j1:
                        _flip_product_bit(sig, (em, en - j0), col, fault.bit)
                vp, wp = _windowed_sum_packed(
                    sig.reshape(m_dim, j1 - j0, n_g, spc),
                    lsb.reshape(m_dim, j1 - j0, n_g, spc),
                    acc_bits,
                    rounding,
                )
                value_p[g0 : g0 + n_g, :, j0:j1] = vp.transpose(2, 0, 1)
                # The f32 kernel's sentinel window maps back to the sentinel
                # anchor exactly, so this recovers the product anchors.
                anchor_p[g0 : g0 + n_g, :, j0:j1] = wp.transpose(2, 0, 1) + (acc_bits - 1)
    return out


def _chain_merge(
    value_p: np.ndarray,
    anchor_p: np.ndarray,
    c: np.ndarray,
    acc_bits: int,
    rounding: RoundingMode,
) -> np.ndarray:
    """One register's sequential chain: fold C into chunk 0, round to FP32,
    feed the result to chunk 1 as its C, and so on."""
    acc = c
    for j in range(value_p.shape[0]):
        acc = _chain_c_merge(value_p[j], anchor_p[j], acc, acc_bits, rounding)
    return acc


def chained_vector_fp32(
    a: np.ndarray | None,
    b: np.ndarray,
    c: np.ndarray | float = 0.0,
    *,
    k_chunk: int = 4,
    acc_bits: int = 48,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
    block: int = _CHAIN_BLOCK,
    group: int = _CHAIN_GROUP,
    a_fields: LaneFields | None = None,
    product_fault: ProductFault | None = None,
) -> np.ndarray:
    """A whole FP32 K-chain of MMAs with one batched product reduction.

    Bit-identical to chaining :func:`scalar_mma_fp32` ``k_chunk`` columns
    at a time (the property suite asserts it), but restructured around
    the observation that the C operand is the *last* slot of every
    chunk's accumulation order: the 16 product slots of a chunk depend
    only on A and B, so their windowed sums and anchor trajectories are
    precomputed in batched :func:`segmented_windowed_sum_f32` calls —
    ``block`` output columns x ``group`` chunks per call, sized to keep
    the slot buffers cache-resident — and the sequential part of the
    chain (fold in C, round to FP32, feed the next chunk) touches one
    full-width ``(M, N)`` slot per chunk (:func:`_chain_c_merge`)
    instead of re-reducing all ``4*k_chunk + 1`` slots. ``block`` and
    ``group`` are pure performance knobs; no setting changes a bit. A
    single MMA is the one-chunk chain ``k_chunk = K``.

    The operand split that feeds the multiplier lanes is derived *once*
    per whole operand — A up front (or taken precomputed from
    ``a_fields``, the split cache's artefact, in which case ``a`` may be
    ``None``), B once per column block — and sliced per chunk group.
    Splitting commutes with slicing elementwise, so this is bit-identical
    to splitting each chunk's slice.

    ``product_fault`` flips one bit of one multiplier-lane product,
    addressed by its slot over the whole chain (``k*4 + lane``).
    """
    if k_chunk < 1:
        raise ValueError("k_chunk must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    if a_fields is None:
        if a is None:
            raise ValueError("chained_vector_fp32 needs a or a_fields")
        a = np.asarray(a, dtype=np.float64)
        m_dim, k_total, n_dim = _require_tile(a, b)
        a_fields = fp32_lane_fields(a)
    else:
        if b.ndim != 2:
            raise ValueError("bit-level MMA takes 2-D operand tiles")
        m_dim, k_total = a_fields[0].shape
        n_dim = b.shape[1]
        if b.shape[0] != k_total:
            raise ValueError(
                f"K mismatch: A fields ({m_dim}, {k_total}) @ B{b.shape}"
            )
    c_arr = np.broadcast_to(np.asarray(c, dtype=np.float64), (m_dim, n_dim))
    if product_fault is not None:
        _check_fault(
            product_fault, product_slot_count(MXUMode.FP32, k_total), (m_dim, n_dim)
        )
    if k_total == 0 or n_dim == 0 or m_dim == 0:
        return c_arr.copy()
    ((value_p, anchor_p),) = _chain_partials(
        [a_fields], [b], [[(0, 0, 0)]], [product_fault],
        k_chunk, acc_bits, rounding, max(int(block), 1), max(int(group), 1),
    )
    return _chain_merge(value_p, anchor_p, c_arr, acc_bits, rounding)


def _fp32c_local_fault(
    fault: ProductFault, accumulator: str
) -> ProductFault | None:
    """Map a global FP32C product slot onto one register's local slots."""
    per_k = _LANES_PER_PAIR * len(_COMPONENT_SCHEDULE)
    k, rem = divmod(fault.slot, per_k)
    comp, lane = divmod(rem, _LANES_PER_PAIR)
    target = _COMPONENT_SCHEDULE[comp][3]
    if target != accumulator:
        return None
    local_comp = comp if comp < 2 else comp - 2
    local = k * (2 * _LANES_PER_PAIR) + local_comp * _LANES_PER_PAIR + lane
    return ProductFault(slot=local, element=fault.element, bit=fault.bit)


def chained_vector_fp32c(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | complex = 0.0,
    *,
    k_chunk: int = 2,
    acc_bits: int = 48,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
    product_fault: ProductFault | None = None,
) -> np.ndarray:
    """A whole FP32C K-chain of MMAs (Fig. 3(c)) through the chained kernel.

    Bit-identical to chaining :func:`scalar_mma_fp32c` ``k_chunk`` columns
    at a time (the default, 2, is the M3XU FP32C instruction K). Each
    accumulation register runs the
    :func:`chained_vector_fp32` pipeline over its two component pairings
    — rr and the sign-flipped ii for the real register, ri and ir for the
    imaginary one — interleaved at stride 8 as the scalar loop visits
    them, then folds its own C component chunk by chunk.
    ``product_fault`` addresses the global FP32C slot (``k*16 +
    component*4 + lane``).
    """
    if k_chunk < 1:
        raise ValueError("k_chunk must be >= 1")
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    m_dim, k_total, n_dim = _require_tile(a, b)
    c_arr = np.broadcast_to(np.asarray(c, dtype=np.complex128), (m_dim, n_dim))
    if product_fault is not None:
        _check_fault(
            product_fault, product_slot_count(MXUMode.FP32C, k_total), (m_dim, n_dim)
        )
    if k_total == 0 or n_dim == 0 or m_dim == 0:
        return c_arr.copy()
    component = {"real": 0, "imag": 1}
    registers = [
        [
            (component[ca], component[cb], negate)
            for ca, cb, negate, reg in _COMPONENT_SCHEDULE
            if reg == accumulator
        ]
        for accumulator in ("real", "imag")
    ]
    faults = [
        None if product_fault is None else _fp32c_local_fault(product_fault, accumulator)
        for accumulator in ("real", "imag")
    ]
    (re_v, re_a), (im_v, im_a) = _chain_partials(
        [
            fp32_lane_fields(np.ascontiguousarray(a.real)),
            fp32_lane_fields(np.ascontiguousarray(a.imag)),
        ],
        [b.real, b.imag],
        registers, faults,
        k_chunk, acc_bits, rounding, _CHAIN_BLOCK, _CHAIN_GROUP,
    )
    # Component-wise assembly: ``re + 1j*im`` would turn an overflowed
    # ±inf register into NaN via the complex multiply's 0*inf terms.
    result = np.empty((m_dim, n_dim), dtype=np.complex128)
    result.real = _chain_merge(re_v, re_a, c_arr.real, acc_bits, rounding)
    result.imag = _chain_merge(im_v, im_a, c_arr.imag, acc_bits, rounding)
    return result


# ---------------------------------------------------------------------------
# Scalar oracle engine (BitAccumulator, same slot order, same fault hook)
# ---------------------------------------------------------------------------


def scalar_mma_fp32(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float = 0.0,
    *,
    acc_bits: int = 48,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
    product_fault: ProductFault | None = None,
) -> np.ndarray:
    """The FP32 MMA tile through per-element :class:`BitAccumulator` runs.

    The oracle the vector engine is validated against; same signature,
    same slot ordering, same fault hook.
    """
    from .bitlevel import BitAccumulator

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m_dim, k_dim, n_dim = _require_tile(a, b)
    if product_fault is not None:
        _check_fault(
            product_fault, product_slot_count(MXUMode.FP32, k_dim), (m_dim, n_dim)
        )
    sa, ea, ah, al = split_fp32_fields(a)
    sb, eb, bh, bl = split_fp32_fields(b)
    ea_eff = _effective_exp(ea)
    eb_eff = _effective_exp(eb)
    a_parts = (ah, al)
    b_parts = (bh, bl)
    c_arr = np.broadcast_to(np.asarray(c, dtype=np.float64), (m_dim, n_dim))
    cs, csig, clsb = _c_slot(c_arr)

    out = np.zeros((m_dim, n_dim), dtype=np.float64)
    for m in range(m_dim):
        for n in range(n_dim):
            acc = BitAccumulator(width=acc_bits, mode=rounding)
            slot = 0
            for k in range(k_dim):
                pair_exp = int(ea_eff[m, k] + eb_eff[k, n]) - 46
                sign_mk = int(sa[m, k] ^ sb[k, n])
                for ia, ib, shift in _LANE_SCHEDULE:
                    sig = int(a_parts[ia][m, k]) * int(b_parts[ib][k, n])
                    if (
                        product_fault is not None
                        and product_fault.element == (m, n)
                        and product_fault.slot == slot
                    ):
                        sig ^= 1 << product_fault.bit
                    slot += 1
                    if sig:
                        acc.add(sign_mk, sig, pair_exp + shift)
            acc.add(int(cs[m, n]), int(csig[m, n]), int(clsb[m, n]))
            out[m, n] = acc.to_float()
    return out


def scalar_mma_fp32c(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | complex = 0.0,
    *,
    acc_bits: int = 48,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
    product_fault: ProductFault | None = None,
) -> np.ndarray:
    """The FP32C MMA tile through per-element :class:`BitAccumulator` runs."""
    from .bitlevel import BitAccumulator

    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    m_dim, k_dim, n_dim = _require_tile(a, b)
    if product_fault is not None:
        _check_fault(
            product_fault, product_slot_count(MXUMode.FP32C, k_dim), (m_dim, n_dim)
        )
    fields = {
        ("a", "real"): split_fp32_fields(np.ascontiguousarray(a.real)),
        ("a", "imag"): split_fp32_fields(np.ascontiguousarray(a.imag)),
        ("b", "real"): split_fp32_fields(np.ascontiguousarray(b.real)),
        ("b", "imag"): split_fp32_fields(np.ascontiguousarray(b.imag)),
    }
    c_arr = np.broadcast_to(np.asarray(c, dtype=np.complex128), (m_dim, n_dim))
    c_slots = {
        "real": _c_slot(np.ascontiguousarray(c_arr.real)),
        "imag": _c_slot(np.ascontiguousarray(c_arr.imag)),
    }

    out = np.zeros((m_dim, n_dim), dtype=np.complex128)
    for m in range(m_dim):
        for n in range(n_dim):
            accs = {
                "real": BitAccumulator(width=acc_bits, mode=rounding),
                "imag": BitAccumulator(width=acc_bits, mode=rounding),
            }
            slot = 0
            for k in range(k_dim):
                for ca, cb, negate, reg in _COMPONENT_SCHEDULE:
                    fsa, fea, fah, fal = fields[("a", ca)]
                    fsb, feb, fbh, fbl = fields[("b", cb)]
                    pair_exp = (
                        int(_effective_exp(fea[m : m + 1, k])[0])
                        + int(_effective_exp(feb[k : k + 1, n])[0])
                        - 46
                    )
                    sign_mk = int(fsa[m, k] ^ fsb[k, n]) ^ negate
                    pa = (int(fah[m, k]), int(fal[m, k]))
                    pb = (int(fbh[k, n]), int(fbl[k, n]))
                    for ia, ib, shift in _LANE_SCHEDULE:
                        sig = pa[ia] * pb[ib]
                        if (
                            product_fault is not None
                            and product_fault.element == (m, n)
                            and product_fault.slot == slot
                        ):
                            sig ^= 1 << product_fault.bit
                        slot += 1
                        if sig:
                            accs[reg].add(sign_mk, sig, pair_exp + shift)
            for reg in ("real", "imag"):
                rs, rsig, rlsb = c_slots[reg]
                accs[reg].add(int(rs[m, n]), int(rsig[m, n]), int(rlsb[m, n]))
            out[m, n] = complex(accs["real"].to_float(), accs["imag"].to_float())
    return out


# ---------------------------------------------------------------------------
# The MXU-shaped wrapper
# ---------------------------------------------------------------------------

_SCALAR_MMA = {MXUMode.FP32: scalar_mma_fp32, MXUMode.FP32C: scalar_mma_fp32c}


class BitLevelMXU:
    """The bit-level datapath behind the ``mma``/``mma_parts`` contract.

    Drop-in MXU model for :class:`~repro.gemm.tiled.TiledGEMM` (and thus
    for ABFT-guarded runs and fault campaigns): every MMA executes the
    true split -> 12x12 multiply -> shifted 48-bit accumulate pipeline,
    with the engine (vectorized or scalar oracle) chosen per
    :func:`resolve_bitlevel_engine`. FP32 and FP32C only; the value-level
    parts handed to :meth:`mma_parts` are ignored — this model re-derives
    the slices from the operand bits, which is the point.
    """

    #: Marks bit-level capability for drivers and fault injectors.
    bitlevel = True

    def __init__(
        self,
        engine: str | None = None,
        config: MXUConfig = M3XU_CONFIG,
        acc_bits: int | None = None,
        rounding: RoundingMode | None = None,
    ) -> None:
        self.engine = resolve_bitlevel_engine(engine)
        self.config = config
        width = acc_bits if acc_bits is not None else config.acc_bits
        self.acc_bits = int(width if width is not None else 48)
        self.rounding = rounding if rounding is not None else config.acc_rounding

    # -- contract ------------------------------------------------------
    def supported_modes(self) -> frozenset[MXUMode]:
        return frozenset({MXUMode.FP32, MXUMode.FP32C})

    def steps(self, mode: MXUMode) -> int:
        return step_plan(mode).n_steps

    def output_format(self, mode: MXUMode) -> FloatFormat:
        return FP32

    # -- MMA entry points ----------------------------------------------
    def mma(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | float,
        mode: MXUMode,
        *,
        product_fault: ProductFault | None = None,
    ) -> np.ndarray:
        if mode is MXUMode.FP32C:
            aq = quantize_complex(np.asarray(a, dtype=np.complex128), FP32)
            bq = quantize_complex(np.asarray(b, dtype=np.complex128), FP32)
        else:
            aq = quantize(np.asarray(a, dtype=np.float64), FP32)
            bq = quantize(np.asarray(b, dtype=np.float64), FP32)
        return self.mma_parts(aq, bq, {}, {}, c, mode, product_fault=product_fault)

    def mma_parts(
        self,
        a: np.ndarray,
        b: np.ndarray,
        a_parts: Mapping[str, np.ndarray],
        b_parts: Mapping[str, np.ndarray],
        c: np.ndarray | float,
        mode: MXUMode,
        *,
        c_quantized: bool = False,
        product_fault: ProductFault | None = None,
    ) -> np.ndarray:
        """Plan-driven entry: dense slices are used, value parts ignored.

        Runs the scalar oracle, or the chained vector kernel as the
        one-chunk chain ``k_chunk = K``.
        """
        if mode not in self.supported_modes():
            raise ValueError(
                f"bit-level engines model fp32/fp32c only, not {mode.value}"
            )
        if mode is MXUMode.FP32C:
            cq = np.asarray(c, dtype=np.complex128)
            cq = cq if c_quantized else quantize_complex(cq, FP32)
        else:
            cq = np.asarray(c, dtype=np.float64)
            cq = cq if c_quantized else quantize(cq, FP32)
        a, b = np.asarray(a), np.asarray(b)
        if self.engine == "scalar":
            return _SCALAR_MMA[mode](
                a, b, cq, acc_bits=self.acc_bits, rounding=self.rounding,
                product_fault=product_fault,
            )
        if a.ndim == 2 and b.ndim == 2 and a.shape[1] == 0 == b.shape[0]:
            # An MMA over no products still rounds C through the window,
            # whereas a chain of no MMAs returns C untouched: feed one
            # zero product per element (a non-event) instead. That padded
            # product is no slot a fault may name.
            if product_fault is not None:
                _check_fault(product_fault, 0, (a.shape[0], b.shape[1]))
            a = np.zeros((a.shape[0], 1), dtype=a.dtype)
            b = np.zeros((1, b.shape[1]), dtype=b.dtype)
        k = max(a.shape[-1], 1)
        if mode is MXUMode.FP32C:
            return chained_vector_fp32c(
                a, b, cq, k_chunk=k, acc_bits=self.acc_bits, rounding=self.rounding,
                product_fault=product_fault,
            )
        return chained_vector_fp32(
            a, b, cq, k_chunk=k, acc_bits=self.acc_bits, rounding=self.rounding,
            product_fault=product_fault,
        )

    # Convenience wrappers mirroring the M3XU API ----------------------
    def mma_fp32(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float
    ) -> np.ndarray:
        return self.mma(a, b, c, MXUMode.FP32)

    def mma_fp32c(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float
    ) -> np.ndarray:
        return self.mma(a, b, c, MXUMode.FP32C)
