"""MXU operating modes and their multi-step execution plans.

Section IV specifies each M3XU mode as a sequence of *steps*; on every step
the data-assignment stage picks which part (high/low mantissa slice, or
real/imaginary component) of each operand feeds each multiplier, whether
the product's sign is flipped (complex ``i*i = -1``), and at which binary
weight the product joins the 48-bit accumulator. :class:`StepPlan`
captures that schedule declaratively; both the functional model
(:mod:`repro.mxu.m3xu`) and the instruction-count performance model read it.

Part labels: ``H``/``L`` = high/low 12-bit mantissa slice; in complex mode
each of the real (``R``) and imaginary (``I``) components is itself split,
giving parts like ``RH`` (real-high). ``accumulator`` names the output the
step feeds (``"real"``/``"imag"``; plain modes use ``"real"``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..types.formats import BF16, FP16, FP32, FP64, TF32, FloatFormat

__all__ = [
    "MXUMode",
    "StepProduct",
    "Step",
    "StepPlan",
    "step_plan",
    "chunk_bounds",
    "MODE_INFO",
]


class MXUMode(enum.Enum):
    """Input data type / operating mode of the (M3)XU."""

    FP16 = "fp16"
    BF16 = "bf16"
    TF32 = "tf32"
    FP32 = "fp32"
    FP32C = "fp32c"
    FP64 = "fp64"


@dataclass(frozen=True)
class StepProduct:
    """One multiplier assignment within a step.

    ``a_part``/``b_part`` name the operand slice routed to the multiplier,
    ``negate`` models the sign-bit flip of Fig. 3(c), ``weight_shift`` is
    the left-shift (in bits) applied when the product joins the
    accumulator — the "shift by 24 / 16 bits" muxes of Fig. 3(b), expressed
    here relative to the least-significant (L*L) product lane.
    """

    a_part: str
    b_part: str
    negate: bool = False
    weight_shift: int = 0
    accumulator: str = "real"


@dataclass(frozen=True)
class Step:
    """One cycle of a multi-step MMA: the products issued concurrently."""

    products: tuple[StepProduct, ...]


@dataclass(frozen=True)
class StepPlan:
    """Full execution schedule of one MMA instruction in a given mode."""

    mode: MXUMode
    input_format: FloatFormat
    steps: tuple[Step, ...]
    #: K extent of one instruction relative to the native (FP16) K.
    k_scale_den: int

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def products_per_k(self) -> int:
        """Partial products generated per logical (a_k, b_k) operand pair."""
        return sum(len(s.products) for s in self.steps)


def _plain(mode: MXUMode, fmt: FloatFormat) -> StepPlan:
    """Native single-step modes: one product per pair, no reassignment."""
    return StepPlan(
        mode=mode,
        input_format=fmt,
        steps=(Step((StepProduct("X", "X"),)),),
        k_scale_den=1,
    )


def _fp32_plan() -> StepPlan:
    """Observation 1/2: two steps; step 1 pairs like parts (H*H at weight
    2^24, L*L at 2^0), step 2 flips the B assignment for the cross terms
    (both at weight 2^12). Weights are relative to the L*L lane; 12 is the
    mantissa-slice width."""
    return StepPlan(
        mode=MXUMode.FP32,
        input_format=FP32,
        steps=(
            Step((StepProduct("H", "H", weight_shift=24), StepProduct("L", "L", weight_shift=0))),
            Step((StepProduct("H", "L", weight_shift=12), StepProduct("L", "H", weight_shift=12))),
        ),
        k_scale_den=2,
    )


def _fp32c_plan() -> StepPlan:
    """Observation 3 + Section IV-B: four steps. Steps 1-2 produce the real
    part (imag*imag products negated), steps 3-4 the imaginary part; each
    pair of steps is an FP32 two-step multiply over the component split."""
    real = []
    for a_c, b_c, neg in (("R", "R", False), ("I", "I", True)):
        real.append(
            Step(
                (
                    StepProduct(a_c + "H", b_c + "H", neg, 24, "real"),
                    StepProduct(a_c + "L", b_c + "L", neg, 0, "real"),
                )
            )
        )
        real.append(
            Step(
                (
                    StepProduct(a_c + "H", b_c + "L", neg, 12, "real"),
                    StepProduct(a_c + "L", b_c + "H", neg, 12, "real"),
                )
            )
        )
    imag = []
    for a_c, b_c in (("R", "I"), ("I", "R")):
        imag.append(
            Step(
                (
                    StepProduct(a_c + "H", b_c + "H", False, 24, "imag"),
                    StepProduct(a_c + "L", b_c + "L", False, 0, "imag"),
                )
            )
        )
        imag.append(
            Step(
                (
                    StepProduct(a_c + "H", b_c + "L", False, 12, "imag"),
                    StepProduct(a_c + "L", b_c + "H", False, 12, "imag"),
                )
            )
        )
    # The hardware fuses each (like, cross) pair of sub-steps into a single
    # step by doubling the multiplier lanes fed per pair — 4 architectural
    # steps total (Fig. 3c). We keep the fused view: 4 steps, 4 products each.
    fused = []
    for i in range(0, 4, 2):
        fused.append(Step(real[i].products + real[i + 1].products))
    for i in range(0, 4, 2):
        fused.append(Step(imag[i].products + imag[i + 1].products))
    return StepPlan(
        mode=MXUMode.FP32C,
        input_format=FP32,
        steps=tuple(fused),
        k_scale_den=4,
    )


def _fp64_plan() -> StepPlan:
    """Section IV-C sketch: four steps over the high/low split of each FP64
    operand (high-high, high-low, low-high, low-low), same swapping policy
    as FP32C but without sign flips. Weights relative to the L*L lane for a
    27-bit slice width (the generic split width used by the FP64 model)."""
    return StepPlan(
        mode=MXUMode.FP64,
        input_format=FP64,
        steps=(
            Step((StepProduct("H", "H", weight_shift=54),)),
            Step((StepProduct("H", "L", weight_shift=27),)),
            Step((StepProduct("L", "H", weight_shift=27),)),
            Step((StepProduct("L", "L", weight_shift=0),)),
        ),
        k_scale_den=4,
    )


_PLANS: dict[MXUMode, StepPlan] = {
    MXUMode.FP16: _plain(MXUMode.FP16, FP16),
    MXUMode.BF16: _plain(MXUMode.BF16, BF16),
    MXUMode.TF32: _plain(MXUMode.TF32, TF32),
    MXUMode.FP32: _fp32_plan(),
    MXUMode.FP32C: _fp32c_plan(),
    MXUMode.FP64: _fp64_plan(),
}


def step_plan(mode: MXUMode) -> StepPlan:
    """The execution plan of one MMA instruction in *mode*."""
    return _PLANS[mode]


def chunk_bounds(k: int, k_chunk: int | None) -> list[tuple[int, int]]:
    """``(k0, k1)`` of every MMA in a K-chain of *k_chunk*-wide instructions.

    ``None`` is one MMA over all of K, even K = 0 (C still passes through
    the accumulation window); a chain of chunks over K = 0 has no MMA.
    """
    if k_chunk is None:
        return [(0, k)]
    return [(k0, min(k0 + k_chunk, k)) for k0 in range(0, k, k_chunk)]


#: Quick-reference mode table: (steps, K divisor, supported by baseline TC).
MODE_INFO: dict[MXUMode, tuple[int, int, bool]] = {
    MXUMode.FP16: (1, 1, True),
    MXUMode.BF16: (1, 1, True),
    MXUMode.TF32: (1, 1, True),
    MXUMode.FP32: (2, 2, False),
    MXUMode.FP32C: (4, 4, False),
    MXUMode.FP64: (4, 4, False),
}
