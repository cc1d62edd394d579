"""Fault injection into the M3XU datapath (validation tooling).

The paper validates its RTL with ModelSim; the software analogue is
fault-injection: flip one bit somewhere in the datapath and check that
the output corruption is what the microarchitecture predicts. Beyond
validating the model, the study quantifies a design property the
bit-level structure makes precise: a single-event upset in a *low-slice*
buffer entry perturbs the result by at most ``2^-12`` of the operand's
magnitude, while one in a *high-slice* entry (or the sign/exponent
fields) can corrupt the full value — the data-assignment buffers are not
uniformly critical.

Two layers of tooling live here:

* **Bit-level injectors** — :func:`inject_operand_fault` flips one bit
  of one operand-buffer entry (the original study);
  :func:`inject_register_fault`, :func:`inject_shift_align_fault` and
  :func:`inject_sign_flip_fault` extend the reach to the accumulation
  register, the shift-align stage (an upset in the alignment shift
  count leaves a result off by a power of two) and the sign-flip
  datapath of the complex mode (Fig. 3(c)).
* **:class:`FaultyM3XU`** — a transparent MXU wrapper that arms one
  :class:`FaultSpec` and fires it on a chosen MMA invocation, modelling
  a transient single-event upset inside a longer GEMM. It drives the
  randomized campaigns of :mod:`repro.resilience.campaign` and the
  ABFT inject→detect→recover demonstrations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..types.bits import decode, encode
from ..types.formats import FP32, FloatFormat
from .config import MXUConfig
from .modes import MXUMode

if TYPE_CHECKING:
    from .m3xu import M3XU
    from .vectorized import BitLevelMXU

__all__ = [
    "FaultSite",
    "FaultStage",
    "FaultSpec",
    "FaultyM3XU",
    "inject_operand_fault",
    "inject_register_fault",
    "inject_shift_align_fault",
    "inject_sign_flip_fault",
    "slice_fault_study",
    "FaultImpact",
]


class FaultSite(enum.Enum):
    """Where in the data-assignment buffer entry the upset lands."""

    SIGN = "sign"
    EXPONENT = "exponent"
    HIGH_SLICE = "high_slice"   # mantissa bits m[22:12] (or the hidden-1 wiring)
    LOW_SLICE = "low_slice"     # mantissa bits m[11:0]


def inject_operand_fault(
    x: np.ndarray,
    index: tuple[int, ...],
    site: FaultSite,
    bit: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Flip one stored bit of one FP32 operand element.

    Parameters
    ----------
    x:
        FP32-representable operand array (float64 storage).
    index:
        Which element to corrupt.
    site:
        Field the upset hits.
    bit:
        Bit offset *within the site* (0 = LSB of that field). Ranges:
        sign 0; exponent 0-7; high slice 0-10 (m[12..22]); low slice 0-11.

    Returns
    -------
    np.ndarray
        A copy of *x* with the chosen bit flipped.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    limits = {
        FaultSite.SIGN: (31, 1),
        FaultSite.EXPONENT: (23, 8),
        FaultSite.HIGH_SLICE: (12, 11),
        FaultSite.LOW_SLICE: (0, 12),
    }
    base, width = limits[site]
    if not (0 <= bit < width):
        raise ValueError(f"bit {bit} out of range for {site.value} (width {width})")
    bits = encode(np.array([x[index]]), FP32)
    bits ^= np.uint64(1) << np.uint64(base + bit)
    x[index] = decode(bits, FP32)[0]
    return x


class FaultStage(enum.Enum):
    """Which datapath stage the upset lands in.

    ``OPERAND`` hits a data-assignment buffer entry before the multiply
    (the original study's site); the other three model upsets later in
    the pipeline, expressed as their predicted effect on the MMA output:
    an ``ACCUMULATOR`` register bit flip, a ``SHIFT_ALIGN`` shift-count
    upset (result scaled by a power of two), and a ``SIGN_FLIP`` stage
    fault (result negated — the complex mode's subtract path firing, or
    failing to fire, spuriously).

    ``PRODUCT`` flips one bit of one 12x12-bit multiplier lane's 24-bit
    product *inside* the datapath, addressed by flat slot index
    (:class:`~repro.mxu.vectorized.ProductFault`). It requires a
    bit-level capable unit (:class:`~repro.mxu.vectorized.BitLevelMXU`)
    — the value-level model has no product significands to corrupt — and
    the corruption propagates through the true shifted 48-bit
    accumulation, not through an output-side prediction.
    """

    OPERAND = "operand"
    ACCUMULATOR = "accumulator"
    SHIFT_ALIGN = "shift_align"
    SIGN_FLIP = "sign_flip"
    PRODUCT = "product"


def inject_register_fault(
    x: np.ndarray,
    index: tuple[int, ...],
    bit: int,
    fmt: FloatFormat = FP32,
) -> np.ndarray:
    """Flip one stored bit of one register-format element of *x*.

    Models a single-event upset in an accumulation/output register: the
    element is re-encoded in *fmt* (FP32 by default — the M3XU output
    register format), the chosen bit (0 = LSB) is flipped, and the
    corrupted encoding is decoded back.
    """
    total = 1 + fmt.exponent_bits + fmt.mantissa_bits
    if not (0 <= bit < total):
        raise ValueError(f"bit {bit} out of range for {fmt.name} (width {total})")
    x = np.array(x, dtype=np.float64, copy=True)
    bits = encode(np.array([x[index]]), fmt)
    bits ^= np.uint64(1) << np.uint64(bit)
    x[index] = decode(bits, fmt)[0]
    return x


def inject_shift_align_fault(
    x: np.ndarray, index: tuple[int, ...], shift: int
) -> np.ndarray:
    """Scale one element by ``2**shift`` — the predicted corruption of an
    upset in the shift-align stage's shift count."""
    x = np.array(x, copy=True)
    x[index] = np.ldexp(1.0, shift) * x[index]
    return x


def inject_sign_flip_fault(x: np.ndarray, index: tuple[int, ...]) -> np.ndarray:
    """Negate one element — a stuck/spurious sign-flip stage."""
    x = np.array(x, copy=True)
    x[index] = -x[index]
    return x


@dataclass(frozen=True)
class FaultSpec:
    """One armed transient fault for :class:`FaultyM3XU`.

    Fields left ``None`` are resolved uniformly at random (element
    coordinates, operand site, bit offset) from the spec's seed when the
    fault fires, so one spec describes a reproducible randomized trial.
    """

    stage: FaultStage
    call_index: int = 0  #: which MMA invocation (0-based) the upset hits
    element: tuple[int, ...] | None = None
    site: "FaultSite | None" = None  #: operand-stage field (random if None)
    bit: int | None = None  #: bit offset within the site/register/product
    shift: int | None = None  #: shift-align scale exponent (random ±1..8)
    seed: int = 0
    slot: int | None = None  #: product-stage flat slot index (random if None)

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        stage: FaultStage,
        n_calls: int = 1,
    ) -> "FaultSpec":
        """A fully randomized spec hitting one of *n_calls* MMAs."""
        return cls(
            stage=stage,
            call_index=int(rng.integers(max(n_calls, 1))),
            seed=int(rng.integers(2**31 - 1)),
        )

    def describe(self) -> str:
        parts = [self.stage.value, f"call={self.call_index}"]
        if self.site is not None:
            parts.append(self.site.value)
        if self.bit is not None:
            parts.append(f"bit={self.bit}")
        if self.shift is not None:
            parts.append(f"shift={self.shift}")
        if self.slot is not None:
            parts.append(f"slot={self.slot}")
        return " ".join(parts)


_SITE_WIDTH = {
    FaultSite.SIGN: 1,
    FaultSite.EXPONENT: 8,
    FaultSite.HIGH_SLICE: 11,
    FaultSite.LOW_SLICE: 12,
}


class FaultyM3XU:
    """An MXU wrapper that injects one transient fault, then runs clean.

    Wraps any MXU functional model exposing the ``mma``/``mma_parts``
    contract and passes every call through unchanged except the one the
    armed :class:`FaultSpec` names, where the configured upset is
    applied: operand-stage faults corrupt the A operand (and re-derive
    its slice decomposition, as the corrupted buffer entry feeds the
    data-assignment stage); the later-stage faults corrupt the MMA
    output according to the microarchitectural prediction for their
    stage. The fault fires exactly once — the transient-upset model —
    so a recomputation of the affected region observes a clean unit.

    The wrapper is stateful (call counter, one-shot flag), so drivers
    that fan work out across processes must keep it on the serial path:
    each worker would otherwise run its own pickled copy, firing the
    fault once per worker against worker-local indices.
    """

    #: Stateful unit — batch/shard drivers must not fan it out.
    requires_serial = True

    def __init__(self, spec: FaultSpec, unit: "M3XU | BitLevelMXU | None" = None):
        from .m3xu import M3XU

        self.unit = unit if unit is not None else M3XU()
        self.spec = spec
        self.calls = 0
        self.fired = False
        self.injected: FaultSpec | None = None  #: spec with randomness resolved
        self._rng = np.random.default_rng(spec.seed)

    # -- delegation ----------------------------------------------------
    @property
    def config(self) -> MXUConfig:
        return self.unit.config

    @property
    def bitlevel(self) -> bool:
        """Whether the wrapped unit runs the bit-level datapath."""
        return bool(getattr(self.unit, "bitlevel", False))

    def supported_modes(self) -> frozenset[MXUMode]:
        return self.unit.supported_modes()

    def steps(self, mode: MXUMode) -> int:
        return self.unit.steps(mode)

    def output_format(self, mode: MXUMode) -> FloatFormat:
        return self.unit.output_format(mode)

    # -- fault machinery -----------------------------------------------
    def _should_fire(self) -> bool:
        fire = not self.fired and self.calls == self.spec.call_index
        self.calls += 1
        return fire

    def _pick_element(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.spec.element is not None:
            return self.spec.element
        return tuple(int(self._rng.integers(n)) for n in shape)

    def _corrupt_operand(
        self, a: np.ndarray, mode: MXUMode
    ) -> tuple[np.ndarray, FaultSpec]:
        site = self.spec.site
        if site is None:
            site = list(FaultSite)[int(self._rng.integers(len(FaultSite)))]
        bit = self.spec.bit
        if bit is None:
            bit = int(self._rng.integers(_SITE_WIDTH[site]))
        idx = self._pick_element(a.shape)
        if np.iscomplexobj(a):
            re, im = np.array(a.real, copy=True), np.array(a.imag, copy=True)
            if int(self._rng.integers(2)):
                im = inject_operand_fault(im, idx, site, bit)
            else:
                re = inject_operand_fault(re, idx, site, bit)
            bad = re + 1j * im
        else:
            bad = inject_operand_fault(a, idx, site, bit)
        return bad, replace(self.spec, element=idx, site=site, bit=bit)

    def _corrupt_output(
        self, out: np.ndarray, mode: MXUMode
    ) -> tuple[np.ndarray, FaultSpec]:
        idx = self._pick_element(out.shape)
        stage = self.spec.stage
        resolved = self.spec

        def corrupt(component: np.ndarray) -> np.ndarray:
            nonlocal resolved
            resolved = replace(self.spec, element=idx)
            if stage is FaultStage.ACCUMULATOR:
                fmt = self.unit.output_format(mode)
                bit = self.spec.bit
                if bit is None:
                    width = 1 + fmt.exponent_bits + fmt.mantissa_bits
                    bit = int(self._rng.integers(width))
                resolved = replace(resolved, bit=bit)
                return inject_register_fault(component, idx, bit, fmt)
            if stage is FaultStage.SHIFT_ALIGN:
                shift = self.spec.shift
                if shift is None:
                    magnitude = int(self._rng.integers(1, 9))
                    shift = magnitude if int(self._rng.integers(2)) else -magnitude
                resolved = replace(resolved, shift=shift)
                return inject_shift_align_fault(component, idx, shift)
            if stage is FaultStage.SIGN_FLIP:
                return inject_sign_flip_fault(component, idx)
            raise ValueError(f"not an output-stage fault: {stage}")

        if np.iscomplexobj(out):
            # The real and imaginary accumulation registers are distinct
            # hardware; the upset hits one of them.
            re = np.array(out.real, dtype=np.float64, copy=True)
            im = np.array(out.imag, dtype=np.float64, copy=True)
            if int(self._rng.integers(2)):
                im = corrupt(im)
            else:
                re = corrupt(re)
            return re + 1j * im, resolved
        return corrupt(np.asarray(out, dtype=np.float64)), resolved

    def _resolve_product(
        self, a: np.ndarray, b: np.ndarray, mode: MXUMode
    ) -> tuple[object, FaultSpec]:
        """Resolve a PRODUCT-stage spec into a concrete ProductFault."""
        from .vectorized import PRODUCT_BITS, ProductFault, product_slot_count

        if not self.bitlevel:
            raise ValueError(
                "product-stage faults require a bit-level MXU model "
                "(BitLevelMXU / TiledGEMM(fused=False)); the value-level "
                "model has no product significands to corrupt"
            )
        idx = self._pick_element((a.shape[0], b.shape[1]))
        n_slots = product_slot_count(mode, a.shape[1])
        slot = self.spec.slot
        if slot is None:
            slot = int(self._rng.integers(n_slots))
        bit = self.spec.bit
        if bit is None:
            bit = int(self._rng.integers(PRODUCT_BITS))
        fault = ProductFault(slot=slot, element=(int(idx[0]), int(idx[1])), bit=bit)
        return fault, replace(self.spec, element=idx, slot=slot, bit=bit)

    # -- MMA entry points ----------------------------------------------
    def mma(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float, mode: MXUMode
    ) -> np.ndarray:
        fire = self._should_fire()
        if fire and self.spec.stage is FaultStage.OPERAND:
            self.fired = True
            a, self.injected = self._corrupt_operand(np.asarray(a), mode)
        if fire and self.spec.stage is FaultStage.PRODUCT:
            self.fired = True
            a = np.asarray(a)
            b = np.asarray(b)
            fault, self.injected = self._resolve_product(a, b, mode)
            return self.unit.mma(a, b, c, mode, product_fault=fault)
        out = self.unit.mma(a, b, c, mode)
        if fire and self.spec.stage is not FaultStage.OPERAND:
            self.fired = True
            out, self.injected = self._corrupt_output(out, mode)
        return out

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
    ) -> np.ndarray:
        fire = self._should_fire()
        if fire and self.spec.stage is FaultStage.OPERAND:
            from .dataflow import resolve_parts

            self.fired = True
            a, self.injected = self._corrupt_operand(np.asarray(a), mode)
            a_parts = resolve_parts(a, mode)  # the bad entry feeds data-assignment
        if fire and self.spec.stage is FaultStage.PRODUCT:
            self.fired = True
            a = np.asarray(a)
            b = np.asarray(b)
            fault, self.injected = self._resolve_product(a, b, mode)
            return self.unit.mma_parts(
                a,
                b,
                a_parts,
                b_parts,
                c,
                mode,
                c_quantized=c_quantized,
                product_fault=fault,
            )
        out = self.unit.mma_parts(
            a, b, a_parts, b_parts, c, mode, c_quantized=c_quantized
        )
        if fire and self.spec.stage is not FaultStage.OPERAND:
            self.fired = True
            out, self.injected = self._corrupt_output(out, mode)
        return out

    def mma_fp32(self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float) -> np.ndarray:
        return self.mma(a, b, c, MXUMode.FP32)

    def mma_fp32c(self, a: np.ndarray, b: np.ndarray, c: np.ndarray | float) -> np.ndarray:
        return self.mma(a, b, c, MXUMode.FP32C)


@dataclass(frozen=True)
class FaultImpact:
    """Aggregate impact of upsets at one site."""

    site: FaultSite
    max_rel_output_error: float
    mean_rel_output_error: float


def slice_fault_study(
    m: int = 8,
    k: int = 4,
    n: int = 4,
    trials: int = 30,
    seed: int = 31,
) -> list[FaultImpact]:
    """Monte-Carlo single-bit upsets per site through a real M3XU MMA.

    Returns per-site impact statistics (relative error of the worst
    output element vs the fault-free MMA).
    """
    from .m3xu import M3XU
    from ..types.quantize import quantize

    rng = np.random.default_rng(seed)
    unit = M3XU()
    out: list[FaultImpact] = []
    for site in FaultSite:
        errs = []
        for _ in range(trials):
            a = quantize(rng.uniform(0.5, 2.0, size=(m, k)), FP32)
            b = quantize(rng.uniform(0.5, 2.0, size=(k, n)), FP32)
            clean = unit.mma_fp32(a, b, 0.0)
            idx = (int(rng.integers(m)), int(rng.integers(k)))
            width = {FaultSite.SIGN: 1, FaultSite.EXPONENT: 8,
                     FaultSite.HIGH_SLICE: 11, FaultSite.LOW_SLICE: 12}[site]
            bit = int(rng.integers(width))
            a_bad = inject_operand_fault(a, idx, site, bit)
            dirty = unit.mma_fp32(a_bad, b, 0.0)
            denom = np.maximum(np.abs(clean), 1e-30)
            # repro: allow[XF505] offline diagnostic: the relative-error
            # metric over fault-injected MMA outputs is deliberately lossy
            # float math and never feeds back into the datapath.
            rel = np.abs(dirty - clean) / denom
            errs.append(float(np.max(rel[np.isfinite(rel)], initial=0.0)))
        out.append(
            FaultImpact(
                site=site,
                max_rel_output_error=max(errs),
                mean_rel_output_error=float(np.mean(errs)),
            )
        )
    return out
