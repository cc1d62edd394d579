"""Array-at-a-time bit-level M3XU datapath (the vectorized engine).

:mod:`repro.mxu.bitlevel` walks the RTL-fidelity FP32/FP32C datapath one
product slot at a time through a
:class:`~repro.mxu.bitlevel.BitAccumulator` — perfect as an oracle, far
too slow for campaign-scale work. This module evaluates the same
datapath on whole tiles, bit-identically:

* **Splitting** (Fig. 3a, Eq. 3-8) — the sign/exponent/mantissa fields of
  every FP32 operand are read in one shot through a ``uint32`` bit view
  (:func:`fp32_bit_fields`), and the 12-bit H/L slices are pure integer
  shifts/masks of those arrays (:func:`split_fp32_fields`, which the
  scalar walker reads too). Subnormals (no hidden bit), ±0 and the
  finiteness/representability contract are handled by masks and upfront
  checks.
* **Proof first** — each chunk of a K-chain is first a float64 BLAS
  product, and the soundness interval of the value level's loop
  (:func:`repro.mxu.fused._fast_chain`) settles every output element
  whose FP32 result no windowed sum within the error radius could
  change. The radius bounds the running-anchor window's error as well
  as the single-anchor one (:func:`repro.mxu.fused._radius`), so the
  proven elements are exactly what the datapath below would produce.
* **Multiplying** — the elements the proof cannot settle (near an FP32
  rounding boundary, exact zeros, a non-finite C) reach the datapath as
  ``(n, K)`` panels of their rows of A and columns of B, gathered by the
  loop. Most of them are first guessed and then verified in one batched
  call after the chain's last chunk (guess-then-verify, :mod:`repro.mxu.fused`),
  so a chain makes about one datapath call. The panels were checked
  against the operand contract up front, so their lane fields come
  straight from the bits. Every 12x12-bit multiplier lane is one
  elementwise *float32* product of those panels (exact: the pre-signed
  slices carry at most 12 bits each), written straight into a strided
  column view of one ``(n, lanes*K + 1)`` slot buffer ordered exactly as
  the scalar walker visits the slots (k-major, then the mode's component
  schedule, then lane), with the C operand as the last slot.
* **Shifted 48-bit accumulation** (Fig. 3b) — the slot buffer feeds
  :func:`~repro.arith.accumulator.segmented_windowed_sum_f32`, the
  segmented exact reformulation of the
  :class:`~repro.mxu.bitlevel.BitAccumulator` discipline (masked-cummax
  anchor trajectory, exact per-segment sums, re-round-on-anchor-raise
  merge), held bit-identical to the scalar accumulator by the property
  suite, and :func:`~repro.arith.accumulator.int_window_to_float` rounds
  the window to FP32. The single-anchor
  :func:`~repro.arith.accumulator.aligned_sum_groups` kernel is *not*
  reused for this: it rounds each addend against the final anchor, which
  diverges from the sequential discipline once the exponent span exceeds
  the 48-bit window, and the acceptance bar here is strict bit-identity
  with the scalar oracle.
* **Complex sign flips** (Eq. 9) — the imag*imag subtraction negates the
  B-side slices of that pairing in the real accumulator.

FP32 and FP32C share one datapath: FP32 is the one rr pairing of FP32C's
Fig. 3(c) component schedule (:data:`_SCHEDULE`, one table per mode), so
the vector engine is one kernel, :func:`chained_vector`, evaluating a
whole K-chain of MMAs in either mode; a single MMA is the one-chunk
chain. A product fault sends its chunk through the datapath for every
element, so the faulted lane always runs. Engine selection:
``REPRO_BITLEVEL=vector`` (default) or ``scalar``
(:func:`resolve_bitlevel_engine`); the scalar engine is the oracle walker
:func:`~repro.mxu.bitlevel.bit_level_chain`, which visits the same slots
through :class:`~repro.mxu.bitlevel.BitAccumulator`.
:class:`BitLevelMXU` calls one of the two behind the ``mma``/``chain``
contract, so ``TiledGEMM(BitLevelMXU(), mode)`` (which fans a large
GEMM's column blocks out over the pool like any stateless model), ABFT
tile recomputation and the fault campaigns run it unchanged, and both
engines accept a :class:`ProductFault` — a bit flip in one
multiplier-lane product, addressed by flat slot index — for campaign
injection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from ..arith.accumulator import (
    _check_window_depth,
    int_window_to_float,
    segmented_windowed_sum_f32,
)
from ..types.bits import fp32_bits
from ..types.formats import FP32, FloatFormat
from ..types.quantize import quantize, quantize_complex
from ..types.rounding import RoundingMode
from .config import M3XU_CONFIG, MXUConfig
from .fused import _fast_chain, _panels
from .modes import MXUMode, chunk_bounds, step_plan

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
    "chained_vector",
    "chained_vector_fp32",
    "BitLevelMXU",
    "sharded_bitlevel_gemm",
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

#: (a slice, b slice, accumulator weight shift) — 0 = H, 1 = L: step 1
#: is H*H (shift 24) and L*L (shift 0), step 2 the cross products
#: (shift 12).
_LANE_SCHEDULE = ((0, 0, 24), (1, 1, 0), (0, 1, 12), (1, 0, 12))

#: Each mode's component schedule: ``(A component, B component, negate,
#: register)`` per (a, b) element pair, in the order the unit visits them;
#: component 0 is the real part (all of an FP32 operand), 1 the imaginary
#: part. FP32C is Fig. 3(c): rr and the negated ii feed the real register,
#: ri and ir the imaginary one. FP32 is its one rr pairing. The order
#: fixes the global product-slot index (:class:`ProductFault`).
_SCHEDULE: dict[MXUMode, tuple[tuple[int, int, int, str], ...]] = {
    MXUMode.FP32: ((0, 0, 0, "real"),),
    MXUMode.FP32C: (
        (0, 0, 0, "real"),
        (1, 1, 1, "real"),
        (0, 1, 0, "imag"),
        (1, 0, 0, "imag"),
    ),
}

_LANES_PER_PAIR = len(_LANE_SCHEDULE)  # product slots per (a, b) element pair
PRODUCT_BITS = 24  # a 12x12-bit multiplier lane result

#: One operand's multiplier-lane fields ``(hi, lo, exp)`` (:func:`fp32_lane_fields`).
LaneFields = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _register_bits(x: np.ndarray) -> np.ndarray:
    """``uint32`` bit patterns of finite FP32 values: the operand contract.

    Raises :class:`NonFiniteOperandError` for non-finite input (the
    bit-level model is defined on finite operands) and plain
    :class:`ValueError` for finite values that are not exactly
    FP32-representable (quantise first — same contract as
    :func:`repro.types.bits.encode`).
    """
    x64 = np.asarray(x, dtype=np.float64)
    if not bool(np.all(np.isfinite(x64))):
        raise NonFiniteOperandError("bit-level model handles finite operands")
    return fp32_bits(x64)


def fp32_bit_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sign, biased_exponent, mantissa)`` int64 arrays of FP32 values.

    The vector path's data-assignment front end: one float32 store and a
    ``uint32`` bit view replace the per-element ``encode`` round trip.
    Raises like :func:`_register_bits`.
    """
    return _bit_fields(_register_bits(x))


def _bit_fields(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    exponent fields. Raises like :func:`_register_bits`.
    """
    return _split_fields(_register_bits(x))


def _split_fields(
    bits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    sign, biased, mant = _bit_fields(bits)
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
    k-major, then the mode's component schedule (:data:`_SCHEDULE`), then
    lane — so ``slot = k*4 + lane`` for FP32 and ``slot = k*16 +
    component*4 + lane`` for FP32C (see :func:`product_slot_count`).
    ``element`` is the output element whose dot-product unit the upset
    hits, and ``bit`` (0..23) the flipped bit of the 24-bit product
    significand.
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
    if mode not in _SCHEDULE:
        raise ValueError(f"bit-level engines model fp32/fp32c only, not {mode.value}")
    return _LANES_PER_PAIR * len(_SCHEDULE[mode]) * int(k)


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
    Raises like :func:`_register_bits`.
    """
    return _lane_fields(_register_bits(x))


def _lane_fields(bits: np.ndarray) -> LaneFields:
    sign, biased, hi, lo = _split_fields(bits)
    hi_signed, lo_signed = _signed_parts(sign, hi, lo)
    return hi_signed, lo_signed, _effective_exp(biased).astype(np.int16)


def _panel_bits(x: np.ndarray) -> np.ndarray:
    """``uint32`` bit patterns of a gathered operand panel, unchecked: the
    chain checked every operand against the contract up front."""
    # repro: allow[PS105] the operands were checked FP32-exact before the
    # chain began (_register_bits), so this store never rounds.
    return x.astype(np.float32).view(np.uint32)


def _fill_lane_slots(
    sig: np.ndarray,
    lsb: np.ndarray,
    a_lanes: LaneFields,
    b_lanes: LaneFields,
    base: int,
    stride: int,
    negate: int = 0,
) -> None:
    """Write one (A, B) component pairing's multiplier lanes into the slot
    buffers at columns ``base + lane + k*stride`` (k-major, lane-minor —
    the scalar loop's visit order). Operands arrive as the
    :func:`fp32_lane_fields` of ``(n, K)`` panels, row ``i`` of A's panel
    meeting row ``i`` of B's.

    Each 12x12-bit lane is a single elementwise float32 multiply
    evaluated directly into the strided column view — exact, since both
    slices carry at most 12 bits — with the product sign folded into the
    pre-signed slices (``negate`` flips the B side, implementing the
    FP32C imag*imag subtraction; negating the pre-signed slice is
    bit-identical to re-signing the raw slice, IEEE multiply signs being
    XORs even for zeros); every lane's product LSB sits at ``2^(Ea + Eb -
    46 + shift)``.
    """
    ah, al, ae = a_lanes
    bh, bl, be = b_lanes
    a_parts = (ah, al)
    b_parts = (np.negative(bh), np.negative(bl)) if negate else (bh, bl)
    k = ah.shape[1]
    pair_exp = ae + be
    for lane, (ia, ib, shift) in enumerate(_LANE_SCHEDULE):
        col = slice(base + lane, base + stride * k, stride)
        np.multiply(a_parts[ia], b_parts[ib], out=sig[:, col])
        np.add(pair_exp, np.int16(shift - 46), out=lsb[:, col])


def _flip_product_bit(sig: np.ndarray, row: int, slot: int, bit: int) -> None:
    """XOR one bit of a packed slot's 24-bit product significand."""
    val = float(sig[row, slot])
    mag = int(abs(val)) ^ (1 << bit)
    sig[row, slot] = np.float32(-mag if np.signbit(val) else mag)


def _components(x: np.ndarray) -> tuple[np.ndarray, ...]:
    return (x.real, x.imag) if np.iscomplexobj(x) else (x,)


def _running_anchor_fallback(
    pairings: Sequence[tuple[int, int, int]],
    acc_bits: int,
    rounding: RoundingMode,
    fault: tuple[int, int, int] | None,
    a_rows: np.ndarray,
    b_cols: np.ndarray,
    c_sel: np.ndarray,
) -> np.ndarray:
    """One MMA of one register through the true datapath, for gathered
    output elements (a :data:`~repro.mxu.fused.Fallback` once the first
    four are bound).

    *a_rows*/*b_cols* are the elements' ``(n, K)`` panels of A rows and B
    columns, already checked against the operand contract, so their lane
    fields come straight from the bits. Every lane product is written in
    the scalar slot order — k-major, then *pairings*, then lane — with C
    as the last slot: an ``(n, lanes*K + 1)`` buffer of signed float32
    significands and int16 LSB weights. :func:`segmented_windowed_sum_f32`
    runs the running-anchor window over each row and
    :func:`int_window_to_float` rounds it to FP32, so each value is
    bit-identical to the scalar :class:`~repro.mxu.bitlevel.BitAccumulator`
    over the same slots. *fault* ``(row, slot, bit)`` flips one product
    bit of one row (MMA-local slot). A non-finite C raises
    :class:`NonFiniteOperandError` in its field extraction.
    """
    a_lanes = [_lane_fields(_panel_bits(x)) for x in _components(a_rows)]
    b_lanes = [_lane_fields(_panel_bits(x)) for x in _components(b_cols)]
    n, k = a_rows.shape
    stride = _LANES_PER_PAIR * len(pairings)
    n_prod = stride * k
    sig = np.empty((n, n_prod + 1), dtype=np.float32)
    lsb = np.empty((n, n_prod + 1), dtype=np.int16)
    for i, (ia, ib, negate) in enumerate(pairings):
        _fill_lane_slots(
            sig, lsb, a_lanes[ia], b_lanes[ib],
            base=i * _LANES_PER_PAIR, stride=stride, negate=negate,
        )
    cs, csig, clsb = _c_slot(c_sel)
    # A 24-bit significand with its sign is exact in float32.
    sig[:, n_prod] = np.where(cs != 0, -csig, csig)
    lsb[:, n_prod] = clsb
    if fault is not None:
        _flip_product_bit(sig, *fault)
    value, window = segmented_windowed_sum_f32(sig, lsb, acc_bits=acc_bits, mode=rounding)
    return int_window_to_float(value, window, FP32)


def _register_chain(
    a: np.ndarray,
    b: np.ndarray,
    acc: np.ndarray,
    mode: MXUMode,
    register: str,
    k_chunk: int,
    acc_bits: int,
    rounding: RoundingMode,
    fault: ProductFault | None,
) -> np.ndarray:
    """One accumulation register's K-chain, in place on the C-ordered *acc*.

    Each chunk runs through the value level's BLAS-and-interval loop
    (:func:`~repro.mxu.fused._fast_chain`); only the elements its radius
    cannot settle take :func:`_running_anchor_fallback`, most of them in
    one batched call after the last chunk. A product *fault*
    (register-local slot) splits the chain around its chunk, which runs
    the panels of every element through the fallback with the bit flipped
    in the faulted element's row.
    """
    pairings = [entry[:3] for entry in _SCHEDULE[mode] if entry[3] == register]
    per_k = _LANES_PER_PAIR * len(pairings)
    # Check the fallback's window depth now, not only once an element
    # falls back.
    _check_window_depth(acc_bits, per_k * k_chunk + 1)
    fallback = partial(_running_anchor_fallback, pairings, acc_bits, rounding, None)
    k_total = a.shape[1]

    def fast(k0: int, k1: int) -> None:
        _fast_chain(
            a[:, k0:k1], b[k0:k1], acc, mode, register,
            chunk_bounds(k1 - k0, k_chunk), acc_bits, fallback,
        )

    if fault is None:
        fast(0, k_total)
        return acc
    k0 = fault.slot // (per_k * k_chunk) * k_chunk
    k1 = min(k0 + k_chunk, k_total)
    fast(0, k0)
    flat = acc.reshape(-1)
    row = int(np.ravel_multi_index(fault.element, acc.shape))
    flat[:] = _running_anchor_fallback(
        pairings, acc_bits, rounding, (row, fault.slot - k0 * per_k, fault.bit),
        *_panels(a, b, acc.shape, np.arange(flat.size), k0, k1 - k0), flat,
    )
    fast(k1, k_total)
    return acc


def _local_fault(
    fault: ProductFault, mode: MXUMode, register: str
) -> ProductFault | None:
    """Map a chain-global product slot onto *register*'s local slots, or
    ``None`` when the slot feeds the other register. In FP32 it is the
    identity."""
    schedule = _SCHEDULE[mode]
    k, rem = divmod(fault.slot, _LANES_PER_PAIR * len(schedule))
    comp, lane = divmod(rem, _LANES_PER_PAIR)
    mine = [i for i, entry in enumerate(schedule) if entry[3] == register]
    if comp not in mine:
        return None
    local = (k * len(mine) + mine.index(comp)) * _LANES_PER_PAIR + lane
    return replace(fault, slot=local)


def chained_vector(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float | complex,
    mode: MXUMode,
    *,
    k_chunk: int,
    acc_bits: int = 48,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
    product_fault: ProductFault | None = None,
) -> np.ndarray:
    """A whole FP32 or FP32C K-chain of MMAs, proven in float64 where it can be.

    Bit-identical to the scalar walker
    :func:`~repro.mxu.bitlevel.bit_level_chain` over the same chunks (the
    property suite asserts it). Each accumulation register of the mode's
    component schedule (:data:`_SCHEDULE`) runs its own chain with its own
    C component: FP32's one register, or FP32C's real register (rr and
    the sign-flipped ii) and imaginary one (ri and ir). Each chunk is
    first a float64 BLAS product with the soundness interval of
    :func:`~repro.mxu.fused._fast_chain`, whose radius bounds the 48-bit
    window's error under the running-anchor discipline too
    (:func:`~repro.mxu.fused._radius`). Only the elements the interval
    cannot settle — near an FP32 rounding boundary, exact zeros, a
    non-finite C — run the lane-product datapath
    (:func:`_running_anchor_fallback`). A single MMA is the one-chunk
    chain ``k_chunk = K``.

    A non-finite A, B or C component raises
    :class:`NonFiniteOperandError`, as does the chunk after an FP32
    overflow (its C is the non-finite register); an overflow in the last
    chunk returns ±inf. Any operand that is not an FP32 value raises
    :class:`ValueError`. ``product_fault`` flips one bit of one
    multiplier-lane product, addressed by its slot over the whole chain
    (:class:`ProductFault`).
    """
    if k_chunk < 1:
        raise ValueError("k_chunk must be >= 1")
    dtype = np.complex128 if mode is MXUMode.FP32C else np.float64
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    m_dim, k_total, n_dim = _require_tile(a, b)
    n_slots = product_slot_count(mode, k_total)  # raises for a mode the datapath lacks
    c_arr = np.broadcast_to(np.asarray(c, dtype=dtype), (m_dim, n_dim))
    if product_fault is not None:
        _check_fault(product_fault, n_slots, (m_dim, n_dim))
    if k_total == 0 or n_dim == 0 or m_dim == 0:
        return c_arr.copy()
    for x in (a, b, c_arr):
        for part in _components(x):
            _register_bits(part)
    result = np.empty((m_dim, n_dim), dtype=dtype)
    # One register per component, assembled component-wise: ``re + 1j*im``
    # would turn an overflowed ±inf register into NaN via the complex
    # multiply's 0*inf terms.
    for out, register, c_part in zip(_components(result), ("real", "imag"), _components(c_arr)):
        fault = None if product_fault is None else _local_fault(product_fault, mode, register)
        out[...] = _register_chain(
            a, b, np.array(c_part, order="C"), mode, register, k_chunk, acc_bits,
            rounding, fault,
        )
    return result


def chained_vector_fp32(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | float = 0.0
) -> np.ndarray:
    """:func:`chained_vector` in FP32 at the M3XU instruction K (4)."""
    return chained_vector(a, b, c, MXUMode.FP32, k_chunk=4)


# ---------------------------------------------------------------------------
# The MXU-shaped wrapper
# ---------------------------------------------------------------------------

class BitLevelMXU:
    """The bit-level datapath behind the ``mma``/``chain`` contract.

    Drop-in MXU model for :class:`~repro.gemm.tiled.TiledGEMM` (and thus
    for ABFT-guarded runs and fault campaigns): every MMA gives the bits
    of the true split -> 12x12 multiply -> shifted 48-bit accumulate
    pipeline, with the engine (vectorized or scalar oracle) chosen per
    :func:`resolve_bitlevel_engine`. The scalar oracle executes it for
    every element; the vector engine wherever its float64 proof cannot
    settle one, and always for a faulted chunk. FP32 and FP32C only; the
    slices are derived from the operand bits, which is the point.
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
        return self.chain(aq, bq, c, mode, product_fault=product_fault)

    def chain(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | float | complex,
        mode: MXUMode,
        k_chunk: int | None = None,
        *,
        c_quantized: bool = False,
        product_fault: ProductFault | None = None,
    ) -> np.ndarray:
        """``A @ B + C`` on FP32 register operands as a K-chain of MMAs.

        ``k_chunk=None`` runs a single MMA over all of K. Each engine is
        one call: :func:`chained_vector` or the scalar walker
        :func:`~repro.mxu.bitlevel.bit_level_chain`. ``product_fault``
        addresses a product slot of the whole chain (see
        :class:`ProductFault`).
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
        m_dim, k_total, n_dim = _require_tile(a, b)
        if product_fault is not None:
            _check_fault(
                product_fault, product_slot_count(mode, k_total), (m_dim, n_dim)
            )
        if self.engine == "scalar":
            from .bitlevel import bit_level_chain  # bitlevel imports this module

            return bit_level_chain(
                a, b, cq, mode, k_chunk=k_chunk, acc_bits=self.acc_bits,
                rounding=self.rounding, product_fault=product_fault,
            )
        if k_chunk is None:
            if k_total == 0:
                # An MMA over no products still rounds C through the window,
                # whereas a chain of no MMAs returns C untouched: feed one
                # zero product per element (a non-event) instead.
                a = np.zeros((m_dim, 1), dtype=a.dtype)
                b = np.zeros((1, n_dim), dtype=b.dtype)
            k_chunk = max(k_total, 1)
        return chained_vector(
            a, b, cq, mode, k_chunk=k_chunk, acc_bits=self.acc_bits,
            rounding=self.rounding, product_fault=product_fault,
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


def sharded_bitlevel_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float | complex = 0.0,
    mode: MXUMode = MXUMode.FP32,
    *,
    engine: str | None = None,
    acc_bits: int | None = None,
    rounding: RoundingMode | None = None,
    k_chunk: int | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """``A @ B + C`` on a :class:`BitLevelMXU`, unguarded: the tiled
    driver with ``abft=False``, which fans a large GEMM's columns out
    over *workers* (bit-identical at every worker count)."""
    from ..gemm.tiled import TiledGEMM  # repro.gemm imports this package

    unit = BitLevelMXU(engine, acc_bits=acc_bits, rounding=rounding)
    return TiledGEMM(unit, mode, k_chunk, abft=False, workers=workers).run(a, b, c)
