"""Bit-identity of the fused/BLAS fast path against a materialised reference.

Every execution-path optimisation in this repo claims *bit-identical*
results: the fused grouped reduction, the float64 fast path with windowed
fallback, the one-call K-chain driver (stacks included), and the column
fan-out. This suite holds all of them to that claim — against
:func:`reference_mma`, a test-local MMA built from the unoptimised
primitives (every lane product of :func:`~repro.mxu.dataflow.lane_products`,
one :func:`~repro.arith.accumulator.aligned_sum` with C, one
:func:`~repro.types.quantize.quantize`), and :func:`reference_gemm`, a
per-K-chunk loop over it — across modes, rounding widths, worker counts,
and adversarial inputs (subnormals, infinities, NaNs, signed zeros, heavy
cancellation, midpoint ties).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.accumulator import aligned_sum, aligned_sum_groups
from repro.arith.exact import exact_dot
from repro.gemm.schemes import tensorop_sgemm_3xtf32
from repro.gemm.tiled import TiledGEMM, mxu_cgemm, mxu_sgemm
from repro.mxu import fused
from repro.mxu.baseline import TensorCoreMXU
from repro.mxu.bitlevel import bit_level_chain
from repro.mxu.dataflow import lane_products
from repro.mxu.faults import FaultSpec, FaultStage, FaultyM3XU
from repro.mxu.m3xu import M3XU
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import BitLevelMXU
from repro.types.formats import FP32, FP64
from repro.types.quantize import quantize, quantize_complex
from repro.types.rounding import RoundingMode

REAL_MODES = [MXUMode.FP32, MXUMode.FP64, MXUMode.TF32, MXUMode.BF16, MXUMode.FP16]
ALL_MODES = REAL_MODES + [MXUMode.FP32C]


def biteq(x, y) -> bool:
    """Bitwise equality, NaN payloads and zero signs included."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def reference_mma(unit, a, b, c, mode):
    """One MMA the unoptimised way: every multiplier-lane product
    materialised, one single-anchor aligned sum with C per accumulation
    register, one rounding into the output format. *unit* supplies the
    accumulator width and rounding (M3XU or the Ampere baseline)."""
    cfg = unit.config
    out_fmt = FP64 if mode is MXUMode.FP64 else FP32
    # FP64-mode accumulation registers are FP64: a plain float64 sum.
    acc_bits = None if mode is MXUMode.FP64 else cfg.acc_bits
    grouped = lane_products(a, b, mode)
    if mode is MXUMode.FP32C:
        c = np.asarray(c, dtype=np.complex128)
        registers = (("real", c.real), ("imag", c.imag))
    else:
        registers = (("real", c),)
    out = {}
    for name, c_part in registers:
        products = grouped[name]
        c_q = quantize(np.asarray(c_part, dtype=np.float64), out_fmt)
        c_col = np.broadcast_to(c_q, products.shape[:-1])[..., None]
        wide = aligned_sum(
            np.concatenate([products, c_col], axis=-1),
            axis=-1,
            acc_bits=acc_bits,
            mode=cfg.acc_rounding,
        )
        out[name] = quantize(wide, out_fmt)
    if mode is MXUMode.FP32C:
        d = out["real"].astype(np.complex128)  # no 1j * inf -> NaN real part
        d.imag = out["imag"]
        return d
    return out["real"]


def reference_gemm(unit, a, b, c, mode, mma=None):
    """``A @ B + C`` as a per-K-chunk loop of MMAs (:func:`reference_mma`
    unless *mma* is given), the running sum carried between instructions
    in FP32 accumulator registers. Operands may carry leading batch axes."""
    mma = mma or (lambda x, y, z: reference_mma(unit, x, y, z, mode))
    if mode is MXUMode.FP32C:
        a = quantize_complex(np.asarray(a, dtype=np.complex128), FP32)
        b = quantize_complex(np.asarray(b, dtype=np.complex128), FP32)
        c = quantize_complex(np.asarray(c, dtype=np.complex128), FP32)
    else:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if mode is MXUMode.FP32:  # FP32 register operands
            a, b = quantize(a, FP32), quantize(b, FP32)
        c = quantize(np.asarray(c, dtype=np.float64), FP32)
    out_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
        a.shape[-2],
        b.shape[-1],
    )
    acc = np.broadcast_to(c, out_shape).copy()
    step = unit.config.tile(mode).k
    for k0 in range(0, a.shape[-1], step):
        acc = mma(a[..., k0 : k0 + step], b[..., k0 : k0 + step, :], acc)
    return acc


class _ReferenceMMA:
    """Every MMA of a chain computed by :func:`reference_mma`, so a
    production driver runs over the reference datapath."""

    def chain(self, a, b, c, mode, k_chunk=None, *, c_quantized=False):
        out_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
            a.shape[-2],
            b.shape[-1],
        )
        acc = np.broadcast_to(c, out_shape)
        step = a.shape[-1] if k_chunk is None else k_chunk
        starts = [0] if k_chunk is None else range(0, a.shape[-1], step)
        for k0 in starts:
            acc = reference_mma(
                self, a[..., k0 : k0 + step], b[..., k0 : k0 + step, :], acc, mode
            )
        return np.array(acc)


class ReferenceTensorCore(_ReferenceMMA, TensorCoreMXU):
    pass


class ReferenceM3XU(_ReferenceMMA, M3XU):
    pass


def real_operands(rng, m, k, n, scale=1.0):
    a = quantize(rng.standard_normal((m, k)) * scale, FP32)
    b = quantize(rng.standard_normal((k, n)) * scale, FP32)
    c = quantize(rng.standard_normal((m, n)) * scale, FP32)
    return a, b, c


def complex_operands(rng, m, k, n, scale=1.0):
    a = quantize_complex(
        (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) * scale, FP32
    )
    b = quantize_complex(
        (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) * scale, FP32
    )
    c = quantize_complex(
        (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * scale, FP32
    )
    return a, b, c


class TestAlignedSumGroups:
    """aligned_sum_groups == aligned_sum(concatenate(groups))."""

    @pytest.mark.parametrize("acc_bits", [27, 48])
    @pytest.mark.parametrize(
        "mode", [RoundingMode.NEAREST_EVEN, RoundingMode.TOWARD_ZERO]
    )
    def test_matches_monolithic(self, rng, acc_bits, mode):
        groups = [rng.standard_normal((6, 5, w)) * 10.0**rng.integers(-8, 8)
                  for w in (3, 1, 7, 2)]
        got = aligned_sum_groups(groups, acc_bits=acc_bits, mode=mode)
        want = aligned_sum(
            np.concatenate(groups, axis=-1), axis=-1, acc_bits=acc_bits, mode=mode
        )
        assert biteq(got, want)

    def test_broadcast_groups(self, rng):
        full = rng.standard_normal((4, 5, 3))
        bcast = rng.standard_normal((1, 5, 2))  # broadcasts over the lead axis
        got = aligned_sum_groups([full, bcast])
        want = aligned_sum(
            np.concatenate([full, np.broadcast_to(bcast, (4, 5, 2))], axis=-1), axis=-1
        )
        assert biteq(got, want)

    def test_nonfinite_propagation(self, rng):
        g1 = rng.standard_normal((8, 4))
        g2 = rng.standard_normal((8, 3))
        g1[0, 0] = np.inf
        g1[1, 1] = -np.inf
        g2[2, 0] = np.nan
        g2[3, 1] = np.inf
        g1[3, 2] = -np.inf
        got = aligned_sum_groups([g1, g2])
        want = aligned_sum(np.concatenate([g1, g2], axis=-1), axis=-1)
        assert biteq(got, want)

    def test_empty_and_zero_groups(self, rng):
        g = rng.standard_normal((3, 4))
        empty = np.zeros((3, 0))
        assert biteq(aligned_sum_groups([g, empty]), aligned_sum(g, axis=-1))
        zeros = np.zeros((3, 2))
        assert biteq(
            aligned_sum_groups([zeros, np.zeros((3, 0))]),
            aligned_sum(zeros, axis=-1),
        )

    def test_fp64_path(self, rng):
        groups = [rng.standard_normal((4, 3)), rng.standard_normal((4, 2))]
        got = aligned_sum_groups(groups, acc_bits=None)
        want = np.concatenate(groups, axis=-1).sum(axis=-1)
        assert biteq(got, want)


def m3xu_reference(a, b, c, mode=MXUMode.FP32):
    return reference_mma(M3XU(), a, b, c, mode)


class TestMmaFastVsLegacy:
    """M3XU.mma / TensorCoreMXU.mma == reference_mma."""

    @pytest.mark.parametrize("mode", REAL_MODES)
    def test_real_modes(self, rng, mode):
        a, b, c = real_operands(rng, 8, 16, 4)
        got = M3XU().mma(a, b, c, mode)
        want = m3xu_reference(a, b, c, mode)
        assert biteq(got, want)

    def test_fp32c(self, rng):
        a, b, c = complex_operands(rng, 8, 16, 4)
        got = M3XU().mma(a, b, c, MXUMode.FP32C)
        want = m3xu_reference(a, b, c, MXUMode.FP32C)
        assert biteq(got, want)

    @pytest.mark.parametrize("mode", [MXUMode.TF32, MXUMode.BF16, MXUMode.FP16])
    def test_tensorcore(self, rng, mode):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 4))
        c = rng.standard_normal((8, 4))
        got = TensorCoreMXU().mma(a, b, c, mode)
        want = reference_mma(TensorCoreMXU(), a, b, c, mode)
        assert biteq(got, want)

    @pytest.mark.parametrize(
        "scale",
        [1e-40, 1e-30, 1e30, 1.0],
        ids=["subnormal", "tiny", "huge", "unit"],
    )
    def test_extreme_scales(self, rng, scale):
        a, b, c = real_operands(rng, 6, 12, 5, scale=scale)
        got = M3XU().mma_fp32(a, b, c)
        want = m3xu_reference(a, b, c)
        assert biteq(got, want)

    def test_nonfinite_inputs(self, rng):
        a, b, c = real_operands(rng, 6, 12, 5)
        a[0, 0] = np.inf
        a[1, 1] = np.nan
        b[2, 0] = -np.inf
        c[3, 3] = np.nan
        got = M3XU().mma_fp32(a, b, c)
        want = m3xu_reference(a, b, c)
        assert biteq(got, want)

    def test_signed_zero_and_cancellation(self, rng):
        # Rows of A are exact negations -> many exact-zero dot products,
        # which the fast path must route through the windowed fallback to
        # get the canonical zero sign.
        a = quantize(rng.standard_normal((4, 8)), FP32)
        a = np.concatenate([a, -a], axis=0)
        b = quantize(rng.standard_normal((8, 5)), FP32)
        ones = np.ones((8, 5))
        c = np.zeros((8, 5))
        for bb in (b, ones):
            got = M3XU().mma_fp32(a @ np.eye(8), bb, c)  # noqa: mixed signs
            want = m3xu_reference(a @ np.eye(8), bb, c)
            assert biteq(got, want)
        # negative-zero C operand
        cz = np.where(rng.random((8, 5)) < 0.5, -0.0, 0.0)
        za = np.zeros((8, 8))
        got = M3XU().mma_fp32(za, b, cz)
        want = m3xu_reference(za, b, cz)
        assert biteq(got, want)

    def test_midpoint_ties(self):
        # 1 + 2^-24 is an FP32 midpoint: the result hinges on one bit far
        # below the leading addend -- exactly where a sloppy fast path
        # would round differently.
        a = np.array([[1.0, 2.0**-24, 2.0**-25, -(2.0**-25)]])
        b = np.ones((4, 1))
        for c in (0.0, 2.0**-24, -(2.0**-24)):
            got = M3XU().mma_fp32(a, b, c)
            want = m3xu_reference(a, b, c)
            assert biteq(got, want)

    @given(
        k=st.integers(1, 24),
        seed=st.integers(0, 2**31),
        expo=st.integers(-12, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_property(self, k, seed, expo):
        rng = np.random.default_rng(seed)
        a, b, c = real_operands(rng, 4, k, 3, scale=2.0**expo)
        assert biteq(M3XU().mma_fp32(a, b, c), m3xu_reference(a, b, c))

    @given(k=st.integers(1, 16), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_random_property_complex(self, k, seed):
        rng = np.random.default_rng(seed)
        a, b, c = complex_operands(rng, 3, k, 4)
        assert biteq(
            M3XU().mma_fp32c(a, b, c), m3xu_reference(a, b, c, MXUMode.FP32C)
        )


def chain_edge_operands(case, rng, mode, k=37):
    """Operands for one whole-chain edge case (9x37 @ 37x7, ragged K).

    ``nonfinite``: inf and NaN operands; ``overflow``: an FP32 overflow
    entering the accumulator mid-chain, then finite chunks on top of
    inf; ``zero_sums``: rows of A that cancel exactly in every chunk;
    ``neg_zero_c``: zero rows of A against a C of signed zeros.
    """
    complex_mode = mode is MXUMode.FP32C

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_mode else x

    a, b, c = draw((9, k)), draw((k, 7)), draw((9, 7))
    if case == "nonfinite":
        a[0, 5] = np.inf
        a[1, 9] = np.nan
        b[13, 2] = -np.inf
        c[3, 3] = np.nan
    elif case == "overflow":
        a[2, 8:12] = 2.0**100  # the third chunk's products reach 2**130
        b[8:12, 3] = 2.0**30
        a[4, 20:24] = -(2.0**100)
        b[20:24, 5] = 2.0**30
    elif case == "zero_sums":
        a[5:] = -a[:4]
        b[:, 0] = 1.0
        c[:] = 0.0
    elif case == "neg_zero_c":
        a[:4] = 0.0
        c = np.where(rng.random((9, 7)) < 0.5, -0.0, 0.0)
        if complex_mode:
            c = c + 1j * np.where(rng.random((9, 7)) < 0.5, -0.0, 0.0)
    return a, b, c


class TestPlanVsLegacyDriver:
    """TiledGEMM (one chain-kernel call per accumulator for a plain M3XU,
    one split per GEMM otherwise) == reference_gemm (per-chunk MMAs)."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_all_modes_ragged_k(self, rng, mode):
        k = 37  # not a multiple of any instruction K -> ragged tail chunk
        if mode is MXUMode.FP32C:
            a = rng.standard_normal((9, k)) + 1j * rng.standard_normal((9, k))
            b = rng.standard_normal((k, 7)) + 1j * rng.standard_normal((k, 7))
            c = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
        else:
            a = rng.standard_normal((9, k))
            b = rng.standard_normal((k, 7))
            c = rng.standard_normal((9, 7))
        mxu = M3XU()
        got = TiledGEMM(mxu, mode).run(a, b, c)
        want = reference_gemm(mxu, a, b, c, mode)
        assert biteq(got, want)

    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
    @pytest.mark.parametrize(
        "case", ["nonfinite", "overflow", "zero_sums", "neg_zero_c"]
    )
    def test_chain_edge_inputs(self, rng, mode, case):
        # abft=False: the checksum guard cannot verify non-finite results
        # and raises on them; the kernel is what is under test here.
        a, b, c = chain_edge_operands(case, rng, mode)
        mxu = M3XU()
        got = TiledGEMM(mxu, mode, abft=False).run(a, b, c)
        want = reference_gemm(mxu, a, b, c, mode)
        assert biteq(got, want)

    def test_per_mma_units_see_every_chunk(self, rng):
        a, b, c = real_operands(rng, 8, 37, 6)
        chunks = -(-37 // M3XU().config.tile(MXUMode.FP32).k)
        base = reference_gemm(M3XU(), a, b, c, MXUMode.FP32)

        class Counting(ReferenceM3XU):
            calls = 0

            def chain(self, *args, **kwargs):
                Counting.calls += 1
                return super().chain(*args, **kwargs)

        # The driver hands a unit the whole K-chain in one call ...
        assert biteq(TiledGEMM(Counting(), MXUMode.FP32, abft=False).run(a, b, c), base)
        assert Counting.calls == 1
        # ... and a fault-injecting wrapper in at most three: the MMAs
        # before the armed one, the armed MMA alone, the MMAs after it.
        # Its MMA count covers every chunk, and an armed fault on the last
        # one fires.
        for armed, unit_calls in ((0, 2), (4, 3), (chunks - 1, 2), (chunks, 1)):
            Counting.calls = 0
            faulty = FaultyM3XU(
                FaultSpec(FaultStage.SIGN_FLIP, call_index=armed, element=(0, 0)),
                Counting(),
            )
            out = TiledGEMM(faulty, MXUMode.FP32, abft=False).run(a, b, c)
            assert Counting.calls == unit_calls
            assert faulty.calls == chunks and faulty.fired == (armed < chunks)
            if armed == chunks - 1:
                assert out[0, 0] == -base[0, 0]
            if faulty.fired:  # the flip hits element (0, 0) alone
                out[0, 0] = base[0, 0]
            assert biteq(out, base)

    def test_plan_only_differs_from_fastpath_only_never(self, rng):
        # driver + reference chain and per-chunk loop + fused mma both equal
        # the reference loop.
        a, b, c = real_operands(rng, 8, 29, 6)
        base = reference_gemm(M3XU(), a, b, c, MXUMode.FP32)
        assert biteq(TiledGEMM(ReferenceM3XU(), MXUMode.FP32).run(a, b, c), base)
        unit = M3XU()
        per_chunk = reference_gemm(
            unit, a, b, c, MXUMode.FP32,
            mma=lambda x, y, z: unit.mma(x, y, z, MXUMode.FP32),
        )
        assert biteq(per_chunk, base)

    def test_split_scheme(self, rng):
        a, b, c = real_operands(rng, 12, 33, 10)
        got = tensorop_sgemm_3xtf32(a, b, c, TensorCoreMXU())
        want = tensorop_sgemm_3xtf32(a, b, c, ReferenceTensorCore())
        assert biteq(got, want)


class TestBatchedAndParallel:
    """A stack's one chain call == reference loop; workers=1 == workers=4."""

    def test_batched_sgemm(self, rng):
        a = rng.standard_normal((6, 8, 21))
        b = rng.standard_normal((6, 21, 5))
        got = mxu_sgemm(a, b)
        want = reference_gemm(M3XU(), a, b, 0.0, MXUMode.FP32)
        assert biteq(got, want)

    def test_batched_cgemm(self, rng):
        a = rng.standard_normal((6, 4, 13)) + 1j * rng.standard_normal((6, 4, 13))
        b = rng.standard_normal((6, 13, 5)) + 1j * rng.standard_normal((6, 13, 5))
        got = mxu_cgemm(a, b)
        want = reference_gemm(M3XU(), a, b, 0.0, MXUMode.FP32C)
        assert biteq(got, want)

    @staticmethod
    def check_repeated_a(a0, b, run, mode):
        # A stack of byte-identical A slices: the fixed-weights serving
        # pattern, one A against streaming B panels.
        a = np.stack([a0] * len(b))
        want = reference_gemm(M3XU(), a, b, 0.0, mode)
        for workers in (1, 2):
            assert biteq(run(a, b, workers=workers), want)

    def test_batched_sgemm_repeated_a(self, rng):
        a0 = rng.standard_normal((8, 21))
        b = rng.standard_normal((5, 21, 3))
        self.check_repeated_a(a0, b, mxu_sgemm, MXUMode.FP32)

    def test_batched_cgemm_repeated_a(self, rng):
        a0 = rng.standard_normal((8, 21)) + 1j * rng.standard_normal((8, 21))
        b = rng.standard_normal((5, 21, 3)) + 1j * rng.standard_normal((5, 21, 3))
        self.check_repeated_a(a0, b, mxu_cgemm, MXUMode.FP32C)

    def test_batched_workers_identical(self, rng):
        a = rng.standard_normal((7, 8, 16))
        b = rng.standard_normal((7, 16, 6))
        assert biteq(mxu_sgemm(a, b, workers=1), mxu_sgemm(a, b, workers=4))
        ac = a + 1j * rng.standard_normal(a.shape)
        bc = b + 1j * rng.standard_normal(b.shape)
        assert biteq(mxu_cgemm(ac, bc, workers=1), mxu_cgemm(ac, bc, workers=4))



def _units(level):
    """The production unit of *level* and its oracle's ``run(a, b, c, mode)``."""
    if level == "value":
        return M3XU(), lambda a, b, c, mode: reference_gemm(M3XU(), a, b, c, mode)
    oracle = BitLevelMXU(engine="scalar")
    return BitLevelMXU(engine="vector"), lambda a, b, c, mode: (
        TiledGEMM(oracle, mode, abft=False).run(a, b, c)
    )


class TestBroadcastOperands:
    """A broadcast C, or an A shared by a stack, gives the bits of its
    materialised copy, also for the elements that fall back."""

    @pytest.mark.parametrize("level", ["value", "bit"])
    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
    @pytest.mark.parametrize("case", ["zero_sums", "neg_zero_c", "random"])
    def test_row_c(self, rng, level, mode, case, monkeypatch):
        if case == "random":  # most elements fail the proof and are guessed
            real = fused._radius
            monkeypatch.setattr(fused, "_radius", lambda *args: real(*args) * 2.0**10)
        a, b, c = chain_edge_operands(case, rng, mode)
        row = c[0]
        full = np.broadcast_to(row, (a.shape[0], b.shape[1])).copy()
        unit, oracle = _units(level)
        got = TiledGEMM(unit, mode, abft=False).run(a, b, row)
        assert biteq(got, TiledGEMM(unit, mode, abft=False).run(a, b, full))
        assert biteq(got, oracle(a, b, full, mode))

    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
    @pytest.mark.parametrize("case", ["zero_sums", "neg_zero_c", "overflow"])
    def test_stack_with_a_shared_c(self, rng, mode, case):
        # An overflowing element stays ±inf, not NaN.
        (a0, b0, c), (a1, b1, _) = (chain_edge_operands(case, rng, mode) for _ in range(2))
        a, b = np.stack([a0, a1]), np.stack([b0, b1])
        got = TiledGEMM(M3XU(), mode, abft=False).run(a, b, c)
        per_matrix = [TiledGEMM(M3XU(), mode, abft=False).run(x, y, c) for x, y in zip(a, b)]
        assert biteq(got, np.stack(per_matrix))
        assert biteq(got, reference_gemm(M3XU(), a, b, c, mode))

    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
    def test_shared_a_stack_takes_the_fast_chain(self, rng, mode, monkeypatch):
        batches = []
        real = fused._fast_chain

        def spy(a, b, *args, **kwargs):
            batches.append(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(fused, "_fast_chain", spy)
        a, b0, c = chain_edge_operands("zero_sums", rng, mode)
        b = np.stack([b0, -b0, 2 * b0])
        got = TiledGEMM(M3XU(), mode, abft=False).run(a, b, c)
        assert batches and batches[0] == (3,)
        assert biteq(got, TiledGEMM(M3XU(), mode, abft=False).run(np.stack([a] * 3), b, c))
        assert biteq(got, reference_gemm(M3XU(), a, b, c, mode))


class TestBitlevelCrossValidation:
    """The fast path still matches the bit-level golden datapath."""

    @given(data=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e8, max_value=1e8),
        min_size=17, max_size=17,
    ))
    @settings(max_examples=25, deadline=None)
    def test_fp32_dot(self, data):
        a = quantize(np.array(data[:8]), FP32)
        b = quantize(np.array(data[8:16]), FP32)
        c = float(quantize(np.array(data[16]), FP32))
        got = M3XU().mma_fp32(a[None, :], b[:, None], c)[0, 0]
        assert got == bit_level_chain(a[None, :], b[:, None], c, MXUMode.FP32)[0, 0]

    def test_fp32c_dot(self, rng):
        a = quantize_complex(
            rng.standard_normal(6) + 1j * rng.standard_normal(6), FP32
        )
        b = quantize_complex(
            rng.standard_normal(6) + 1j * rng.standard_normal(6), FP32
        )
        got = M3XU().mma_fp32c(a[None, :], b[:, None], 0.0)[0, 0]
        assert got == bit_level_chain(a[None, :], b[:, None], 0.0, MXUMode.FP32C)[0, 0]

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["pos", "neg"])
    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C], ids=["fp32", "fp32c"])
    def test_underflowing_sum_keeps_the_oracles_zero_sign(self, mode, sign):
        # The exact sum, ±2**-160, underflows FP32, so the interval ends
        # store as -0.0 and +0.0, which compare equal. Only the chain
        # loop's lo == 0 test sends the element to the windowed model,
        # whose zero carries the scalar oracle's sign: +0.0 here, and in
        # FP32C's imaginary register too.
        v = np.array([2.0**-56, -(2.0**-56), 2.0**-80, 0.0])
        dtype = np.complex128 if mode is MXUMode.FP32C else np.float64
        a = (sign * v).astype(dtype)[None, :]
        b = np.abs(v).astype(dtype)[:, None]
        k_chunk = 2 if mode is MXUMode.FP32C else 4
        want = TiledGEMM(BitLevelMXU(engine="scalar"), mode, k_chunk=k_chunk).run(a, b)
        assert not np.signbit(want.imag if mode is MXUMode.FP32C else want).any()
        for unit in (M3XU(), BitLevelMXU(engine="vector")):
            got = TiledGEMM(unit, mode, k_chunk=k_chunk).run(a, b)
            assert got.tobytes() == want.tobytes(), type(unit).__name__


class TestAnchorDiscipline:
    """The value-level and bit-level models share lanes and window width
    but not the alignment discipline: the value level aligns every addend
    against one anchor (the largest addend), the bit level against a
    running anchor. Where the exponent span of a dot product exceeds the
    48-bit window the two can round differently; these tests pin the
    documented corner and the agreement everywhere else."""

    # Two tiny lane products below the window of the final anchor: each
    # rounds to zero on its own against the single anchor 2**0, while
    # the running anchor sums them exactly before 1.0 arrives, and that
    # sum tips 1 + 2**-24 (an FP32 midpoint) away from the even neighbour.
    A = np.array([[3 * 2.0**-50, 3 * 2.0**-50, 1.0, 2.0**-24]])
    B = np.ones((4, 1))

    def test_single_anchor_corner(self):
        value = mxu_sgemm(self.A, self.B)
        bitlevel = mxu_sgemm(self.A, self.B, mxu=BitLevelMXU())
        exact = exact_dot(self.A[0], self.B[:, 0], 0.0, FP32)
        assert biteq(value, reference_mma(M3XU(), self.A, self.B, 0.0, MXUMode.FP32))
        assert bitlevel[0, 0] == exact == 1.0 + 2.0**-23
        assert value[0, 0] == 1.0
        assert not biteq(value, bitlevel)

    @given(
        seed=st.integers(0, 2**31),
        k=st.integers(1, 4),
        expo=st.integers(-40, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_models_agree_within_window(self, seed, k, expo):
        # Every addend is an integer multiple of 2**expo below
        # 2**(expo + 33): 12-bit operand significands (each lane product
        # has at most 24 bits), a 2-bit exponent band per operand and a
        # 24-bit C. The whole span fits the 48-bit window of any anchor,
        # so neither discipline drops a bit and both round the exact sum.
        rng = np.random.default_rng(seed)
        a = rng.integers(-4095, 4096, (3, k)) * 2.0 ** (
            expo + rng.integers(0, 4, (3, k)))
        b = rng.integers(-4095, 4096, (k, 2)) * 2.0 ** rng.integers(0, 4, (k, 2))
        c = rng.integers(-(2**23), 2**23, (3, 2)) * 2.0 ** (
            expo + rng.integers(0, 4, (3, 2)))
        value = M3XU().mma_fp32(a, b, c)
        bitlevel = mxu_sgemm(a, b, c, mxu=BitLevelMXU())
        assert biteq(value, bitlevel)
        for m in range(3):
            for n in range(2):
                assert value[m, n] == exact_dot(a[m], b[:, n], float(c[m, n]), FP32)
