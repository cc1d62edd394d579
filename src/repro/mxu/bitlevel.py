"""Bit-level (RTL-fidelity) oracle of the M3XU FP32/FP32C datapath.

The value-level model in :mod:`repro.mxu.m3xu` carries operand slices as
float64 values, so the Fig. 3(b) accumulator shifts are implicit. This
module walks a K-chain of M3XU MMAs the way the hardware does it — on
integer bit fields, one product slot at a time — and is cross-validated
against the value-level model and exact arithmetic in tests. It makes
the paper's bookkeeping concrete:

* the data-assignment stage wires the operand's sign and 8-bit exponent
  to *both* slice buffer entries, attaches the hidden 1 to the high
  slice, and packs mantissa bits ``m[22:12]`` / ``m[11:0]`` (Fig. 3a,
  :func:`~repro.mxu.vectorized.split_fp32_fields`);
* the low slice's exponent is therefore "artificially small ... the
  hardware must later correct for this, post-multiplication": in this
  model the correction is the per-lane ``weight_shift`` — H*H products
  enter the accumulator shifted 24 bits left of L*L, cross products 12 —
  exactly the step plan's shift column;
* products are integer multiplications of 12-bit significands (24-bit
  results), aligned to a shared exponent reference and summed in an
  arbitrary-width integer accumulator model (48 bits in M3XU), then
  normalised and rounded once per MMA to FP32;
* FP32 and FP32C share that datapath: FP32 is the one rr pairing of
  FP32C's Fig. 3(c) component schedule (one table per mode,
  :data:`~repro.mxu.vectorized._SCHEDULE`), so one walker serves both.

It is scalar and slow — the point is bit-exactness, not speed. It is the
innermost oracle in the verification chain: the vectorised engine in
:mod:`repro.mxu.vectorized` is held bit-identical to it, and the tiled
driver (:class:`repro.gemm.tiled.TiledGEMM`), which fans a large GEMM's
column blocks out over the pool, is in turn held bit-identical to the
in-process engines at every worker count.
"""

from __future__ import annotations

import numpy as np

from ..types.formats import FP32
from ..types.rounding import RoundingMode, round_significand_scalar
from .modes import MXUMode, chunk_bounds
from .vectorized import (
    _LANE_SCHEDULE,
    _SCHEDULE,
    ProductFault,
    _c_slot,
    _check_fault,
    _components,
    _effective_exp,
    _require_tile,
    product_slot_count,
    split_fp32_fields,
)

__all__ = ["BitAccumulator", "bit_level_chain"]


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


def bit_level_chain(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | float | complex,
    mode: MXUMode,
    *,
    k_chunk: int | None = None,
    acc_bits: int = 48,
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN,
    product_fault: ProductFault | None = None,
) -> np.ndarray:
    """``A @ B + C`` through the bit-level datapath, one slot at a time.

    Each MMA of the K-chain (*k_chunk* columns of K; ``None`` is one MMA
    over all of K) walks every output element's product slots in the
    scalar order: k-major, then the mode's component schedule
    (:data:`~repro.mxu.vectorized._SCHEDULE`), then lane. Every nonzero
    12x12-bit product enters its register's :class:`BitAccumulator` at
    weight ``2^(Ea + Eb - 46 + shift)``: in hardware every lane produces
    its 24-bit significand at the nominal scale ``2^(Ea + Eb - 46)`` and
    the Fig. 3(b) muxes shift the H*H lane up 24 bits and the cross lanes
    up 12. C joins each register last, and the register rounds to FP32:
    the C of the next MMA.

    *a*, *b* are ``(M, K)`` and ``(K, N)`` tiles of FP32 values (complex
    for FP32C), *c* an FP32 accumulator that broadcasts to ``(M, N)``. A
    non-finite operand, or the C of the MMA after an FP32 overflow,
    raises :class:`~repro.mxu.vectorized.NonFiniteOperandError`.
    ``product_fault`` flips one bit of the product at its chain-global
    slot (:class:`~repro.mxu.vectorized.ProductFault`).
    """
    per_k = product_slot_count(mode, 1)  # raises for a mode the datapath lacks
    # Registers by component index: 0 real, 1 imaginary.
    schedule = [(*entry[:3], ("real", "imag").index(entry[3])) for entry in _SCHEDULE[mode]]
    dtype = np.complex128 if mode is MXUMode.FP32C else np.float64
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    m_dim, k_total, n_dim = _require_tile(a, b)
    fault_slot, fault_element, fault_mask = -1, (-1, -1), 0
    if product_fault is not None:
        _check_fault(product_fault, per_k * k_total, (m_dim, n_dim))
        fault_slot, fault_element = product_fault.slot, product_fault.element
        fault_mask = 1 << product_fault.bit
    out = np.array(np.broadcast_to(np.asarray(c, dtype=dtype), (m_dim, n_dim)))
    for k0, k1 in chunk_bounds(k_total, k_chunk):
        # This MMA's operand fields per component, as lists: (sign,
        # effective exponent, (hi, lo)), indexed from k0.
        fields = [
            [
                (s.tolist(), _effective_exp(e).tolist(), (h.tolist(), lo.tolist()))
                for s, e, h, lo in map(split_fp32_fields, _components(x))
            ]
            for x in (a[:, k0:k1], b[k0:k1])
        ]
        c_slots = [[f.tolist() for f in _c_slot(x)] for x in _components(out)]
        for m in range(m_dim):
            for n in range(n_dim):
                accs = [BitAccumulator(acc_bits, rounding) for _ in c_slots]
                flip_at = fault_slot if (m, n) == fault_element else -1
                slot = k0 * per_k
                for k in range(k1 - k0):
                    for ia, ib, negate, reg in schedule:
                        sa, ea, pa = fields[0][ia]
                        sb, eb, pb = fields[1][ib]
                        sign = sa[m][k] ^ sb[k][n] ^ negate
                        pair_exp = ea[m][k] + eb[k][n] - 46
                        acc = accs[reg]
                        for la, lb, shift in _LANE_SCHEDULE:
                            sig = pa[la][m][k] * pb[lb][k][n]
                            if slot == flip_at:
                                sig ^= fault_mask
                            slot += 1
                            if sig:
                                acc.add(sign, sig, pair_exp + shift)
                values = []
                for acc, (cs, csig, clsb) in zip(accs, c_slots):
                    acc.add(cs[m][n], csig[m][n], clsb[m][n])
                    values.append(acc.to_float())
                out[m, n] = complex(*values) if len(values) == 2 else values[0]
    return out
