"""Bit-level (RTL-fidelity) model of the M3XU FP32 datapath.

The value-level model in :mod:`repro.mxu.m3xu` carries operand slices as
float64 values, so the Fig. 3(b) accumulator shifts are implicit. This
module re-implements one FP32 dot-product-unit operation the way the
hardware does it — on integer bit fields — and is cross-validated against
the value-level model in tests. It makes the paper's bookkeeping concrete:

* the data-assignment stage wires the operand's sign and 8-bit exponent
  to *both* slice buffer entries, attaches the hidden 1 to the high
  slice, and packs mantissa bits ``m[22:12]`` / ``m[11:0]`` (Fig. 3a);
* the low slice's exponent is therefore "artificially small ... the
  hardware must later correct for this, post-multiplication": in this
  model the correction is the per-lane ``weight_shift`` — H*H products
  enter the accumulator shifted 24 bits left of L*L, cross products 12 —
  exactly the step plan's shift column;
* products are integer multiplications of 12-bit significands (24-bit
  results), aligned to a shared exponent reference and summed in an
  arbitrary-width integer accumulator model (48 bits in M3XU), then
  normalised and rounded once to FP32.

It is scalar and slow — the point is bit-exactness, not speed. It is the
innermost oracle in the verification chain: the vectorised engines in
:mod:`repro.mxu.vectorized` are held bit-identical to it, and the tiled
driver (:class:`repro.gemm.tiled.TiledGEMM`), which fans a large GEMM's
column blocks out over the pool, is in turn held bit-identical to the
in-process engines at every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types.formats import FP32
from ..types.rounding import RoundingMode, round_significand_scalar
from .vectorized import NonFiniteOperandError, fp32_bit_fields, split_fp32_fields

__all__ = [
    "SliceBits",
    "split_fp32_bits",
    "bit_level_fp32_dot",
    "bit_level_fp32c_dot",
    "BitAccumulator",
]

_SLICE_BITS = 12  # multiplier input significand width (Section IV-A)


@dataclass(frozen=True)
class SliceBits:
    """One data-assignment buffer entry: sign, 8-bit exponent, 12-bit
    significand (hidden bit already materialised)."""

    sign: int
    biased_exp: int
    significand: int  # 12-bit integer, hidden bit included for the H slice

    def __post_init__(self) -> None:
        if not (0 <= self.significand < (1 << _SLICE_BITS)):
            raise ValueError("slice significand must fit 12 bits")
        if not (0 <= self.biased_exp < 256):
            raise ValueError("biased exponent must fit 8 bits")


def split_fp32_bits(x: float) -> tuple[SliceBits, SliceBits]:
    """The Fig. 3(a) wiring, at the bit level.

    Returns the (high, low) buffer entries for one finite FP32 value.
    The high slice holds ``hidden | m[22:12]``; the low slice holds
    ``m[11:0]`` with no hidden bit; both carry the operand's sign and
    exponent fields verbatim. Field extraction goes through the same
    uint32 bit view as the vectorized engine
    (:func:`repro.mxu.vectorized.split_fp32_fields`) — no Python-float
    promotion or per-element encode round trip.
    """
    rows = _slice_rows(np.array([x], dtype=np.float64))
    return rows[0]


def _slice_rows(vec: np.ndarray) -> list[tuple[SliceBits, SliceBits]]:
    """(high, low) buffer entries for a whole operand vector at once."""
    sign, biased, hi, lo = split_fp32_fields(np.asarray(vec, dtype=np.float64))
    return [
        (SliceBits(s, e, h), SliceBits(s, e, lw))
        for s, e, h, lw in zip(sign.tolist(), biased.tolist(), hi.tolist(), lo.tolist())
    ]


def _c_bits(val: float) -> tuple[int, int, int]:
    """C operand as an accumulator addend: ``(sign, 24-bit sig, LSB exp)``."""
    sign, biased, mant = (int(f[0]) for f in fp32_bit_fields(np.array([val], dtype=np.float64)))
    sig = mant | (1 << 23) if biased else mant
    e = (biased - 127) if biased else -126
    return sign, sig, e - 23


class BitAccumulator:
    """A W-bit shifted integer accumulator with a shared exponent anchor.

    Products arrive as ``(sign, product_significand, lane_shift,
    pair_exponent)``; the accumulator aligns each to its anchor (the
    maximum effective exponent seen) and adds/subtracts integers, exactly
    like the Fig. 3(b) accumulation registers. Alignment drops bits below
    the window with the configured rounding.
    """

    def __init__(self, width: int = 48, mode: RoundingMode = RoundingMode.NEAREST_EVEN):
        if width < 8:
            raise ValueError("accumulator width must be >= 8 bits")
        self.width = width
        self.mode = mode
        self.value = 0  # integer, scaled by 2**(anchor - width + guard)
        self.anchor: int | None = None  # exponent of the MSB of the window

    def _rescale(self, new_anchor: int) -> None:
        assert self.anchor is not None
        shift = new_anchor - self.anchor
        if shift <= 0:
            return
        neg = self.value < 0
        mag = -self.value if neg else self.value
        mag = round_significand_scalar(mag, shift, self.mode)
        self.value = -mag if neg else mag
        self.anchor = new_anchor

    def add(self, sign: int, significand: int, exponent: int) -> None:
        """Add ``(-1)^sign * significand * 2**exponent`` to the window.

        ``exponent`` is the binary weight of the significand's LSB.
        """
        if significand == 0:
            return
        msb = significand.bit_length() - 1
        top = exponent + msb  # exponent of the addend's MSB
        if self.anchor is None:
            self.anchor = top
        if top > self.anchor:
            self._rescale(top)
        # Position of the addend's LSB relative to the window's LSB.
        window_lsb = self.anchor - self.width + 1
        rel = exponent - window_lsb
        if rel >= 0:
            addend = significand << rel
        else:
            addend = round_significand_scalar(significand, -rel, self.mode)
        self.value += -addend if sign else addend

    def to_float(self) -> float:
        """Normalise and round the window to FP32 (returned as float64)."""
        if self.anchor is None or self.value == 0:
            return 0.0
        window_lsb = self.anchor - self.width + 1
        return _round_int_scaled_to_fp32(self.value, window_lsb)


def _round_int_scaled_to_fp32(value: int, lsb_exp: int) -> float:
    """Correctly round ``value * 2**lsb_exp`` to FP32 via exact arithmetic."""
    from fractions import Fraction

    from ..arith.exact import round_fraction

    frac = Fraction(value) * Fraction(2) ** lsb_exp
    return round_fraction(frac, FP32)


def bit_level_fp32_dot(
    a: np.ndarray,
    b: np.ndarray,
    c: float = 0.0,
    acc_bits: int = 48,
) -> float:
    """One FP32 dot product through the bit-level M3XU datapath.

    Executes the two-step schedule explicitly:

    * step 1: ``H*H`` lanes (accumulator shift 24) and ``L*L`` lanes
      (shift 0),
    * step 2: the B-side slice assignment flips — ``H*L`` and ``L*H``
      lanes, both at shift 12,

    with every product formed as a 12x12-bit integer multiplication and
    accumulated in a :class:`BitAccumulator`.

    Parameters
    ----------
    a, b:
        1-D float64 arrays of FP32-representable finite values (length K).
    c:
        FP32 accumulator input.
    acc_bits:
        Accumulation window width (48 in M3XU).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be equal-length vectors")

    acc = BitAccumulator(width=acc_bits)
    slices_a = _slice_rows(a)
    slices_b = _slice_rows(b)

    # (a_part, b_part, lane weight shift) per the FP32 step plan. The
    # shift column is relative to the L*L lane, matching Fig. 3(b)'s
    # "shift the H*H result by 24 bits / the step-2 results by [12] bits".
    schedule = [
        (0, 0, 24),  # step 1: H*H
        (1, 1, 0),   # step 1: L*L
        (0, 1, 12),  # step 2: H*L
        (1, 0, 12),  # step 2: L*H
    ]
    for (ha, la), (hb, lb) in zip(slices_a, slices_b):
        parts_a = (ha, la)
        parts_b = (hb, lb)
        for ia, ib, shift in schedule:
            pa, pb = parts_a[ia], parts_b[ib]
            sig = pa.significand * pb.significand  # exact 24-bit product
            if sig == 0:
                continue
            sign = pa.sign ^ pb.sign
            # In hardware every lane produces its 24-bit significand at
            # the same nominal scale 2^(Ea + Eb - 46) (both slices stored
            # under the shared operand exponents), and the Fig. 3(b)
            # muxes shift the H*H lane up 24 bits and the cross lanes up
            # 12 before accumulation. The nominal scale plus the lane
            # shift is exactly the product's true LSB weight:
            # 2^(Ea + Eb - 46 + shift).
            ea = (pa.biased_exp - 127) if pa.biased_exp else -126
            eb = (pb.biased_exp - 127) if pb.biased_exp else -126
            lsb_exp = ea + eb - 46 + shift
            acc.add(sign, sig, lsb_exp)

    # C joins the wide accumulation (the 48-bit accumulation registers).
    if c != 0.0:
        if not np.isfinite(c):
            raise NonFiniteOperandError("bit-level model handles finite C")
        acc.add(*_c_bits(c))
    return acc.to_float()


def bit_level_fp32c_dot(
    a: np.ndarray,
    b: np.ndarray,
    c: complex = 0.0,
    acc_bits: int = 48,
) -> complex:
    """One FP32C dot product through the bit-level 4-step datapath.

    Executes Fig. 3(c)'s schedule: steps 1-2 accumulate the real part
    (with the sign bit of the imaginary*imaginary lanes flipped — the
    subtraction of Eq. 9), steps 3-4 the imaginary part. Each step is the
    FP32 two-step machinery over one (component_a, component_b) pairing.

    Parameters
    ----------
    a, b:
        1-D complex arrays whose components are FP32-representable.
    c:
        Complex FP32 accumulator input.
    acc_bits:
        Width of each of the two accumulation registers.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be equal-length vectors")

    re_acc = BitAccumulator(width=acc_bits)
    im_acc = BitAccumulator(width=acc_bits)

    # (a component, b component, negate, accumulator) per Fig. 3(c).
    component_schedule = [
        ("real", "real", False, re_acc),
        ("imag", "imag", True, re_acc),
        ("real", "imag", False, im_acc),
        ("imag", "real", False, im_acc),
    ]
    lane_schedule = [(0, 0, 24), (1, 1, 0), (0, 1, 12), (1, 0, 12)]

    # Whole-vector field extraction through the shared uint32 bit view —
    # one pass per operand component instead of a Python-float round trip
    # per element.
    rows = {
        "a": {
            "real": _slice_rows(np.ascontiguousarray(a.real)),
            "imag": _slice_rows(np.ascontiguousarray(a.imag)),
        },
        "b": {
            "real": _slice_rows(np.ascontiguousarray(b.real)),
            "imag": _slice_rows(np.ascontiguousarray(b.imag)),
        },
    }
    for k in range(a.shape[0]):
        comps = {
            "a": {"real": rows["a"]["real"][k], "imag": rows["a"]["imag"][k]},
            "b": {"real": rows["b"]["real"][k], "imag": rows["b"]["imag"][k]},
        }
        for ca, cb, negate, acc in component_schedule:
            parts_a = comps["a"][ca]
            parts_b = comps["b"][cb]
            for ia, ib, shift in lane_schedule:
                pa, pb = parts_a[ia], parts_b[ib]
                sig = pa.significand * pb.significand
                if sig == 0:
                    continue
                sign = pa.sign ^ pb.sign ^ (1 if negate else 0)
                ea = (pa.biased_exp - 127) if pa.biased_exp else -126
                eb = (pb.biased_exp - 127) if pb.biased_exp else -126
                acc.add(sign, sig, ea + eb - 46 + shift)

    for val, acc in ((complex(c).real, re_acc), (complex(c).imag, im_acc)):
        if val == 0.0:
            continue
        if not np.isfinite(val):
            raise NonFiniteOperandError("bit-level model handles finite C")
        acc.add(*_c_bits(val))
    return complex(re_acc.to_float(), im_acc.to_float())
