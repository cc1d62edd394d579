"""Bit-identity of the vectorized bit-level engine against the scalar oracle.

The vectorized datapath (:mod:`repro.mxu.vectorized`; one MMA is the
one-chunk call of its chained kernel) claims *bit-identical* results to
the scalar :class:`~repro.mxu.bitlevel.BitAccumulator` reference
— across modes, adversarial operands (subnormals, signed zeros, extreme
exponent spans, cancellation, the complex sign-flip), injected product
faults, campaign runs, and parallel-worker fan-out. This suite holds the
claim with exhaustive fixed corpora plus hypothesis-randomized sweeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy.study import BITLEVEL_SGEMM_IMPLS, sgemm_accuracy_study
from repro.gemm.tiled import mxu_cgemm, mxu_sgemm
from repro.mxu.bitlevel import bit_level_fp32_dot, bit_level_fp32c_dot
from repro.mxu.faults import FaultSpec, FaultStage, FaultyM3XU
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import (
    BitLevelMXU,
    ProductFault,
    chained_vector_fp32,
    chained_vector_fp32c,
    product_slot_count,
    scalar_mma_fp32,
    scalar_mma_fp32c,
)
from repro.resilience.campaign import BITLEVEL_STAGES, CampaignConfig, run_campaign
from repro.types.formats import FP32
from repro.types.quantize import quantize, quantize_complex


def biteq(x, y) -> bool:
    """Bitwise equality, zero signs included."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# Adversarial FP32 values: signed zeros, smallest/largest subnormals, the
# normal boundary, max normal, exact powers of two, rounding-tie makers,
# and near-cancellation pairs.
ADVERSARIAL = quantize(
    np.array([
        0.0, -0.0,
        1e-45, -1e-45,              # smallest subnormal
        1.1754942e-38,              # largest subnormal
        1.1754944e-38,              # smallest normal
        3.4028235e38, -3.4028235e38,  # max normal
        1.0, -1.0, 2.0**-24, 2.0**24,
        1.0000001, 0.99999994,      # neighbours of 1.0
        1.5, -1.5, 3.0, 0.333251953125,
    ]),
    FP32,
)


def one_mma(a, b, c=0.0, **kw):
    """One MMA on the vector engine: the one-chunk chain (k_chunk = K)."""
    chain = chained_vector_fp32c if np.iscomplexobj(a) else chained_vector_fp32
    return chain(a, b, c, k_chunk=a.shape[1], **kw)


def adversarial_matrix(rng, shape):
    return rng.choice(ADVERSARIAL, size=shape)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestAdversarialBitIdentity:
    def test_fp32_adversarial_tiles(self, rng):
        for _ in range(30):
            a = adversarial_matrix(rng, (4, 6))
            b = adversarial_matrix(rng, (6, 3))
            c = adversarial_matrix(rng, (4, 3))
            assert biteq(one_mma(a, b, c), scalar_mma_fp32(a, b, c))

    def test_fp32c_adversarial_tiles(self, rng):
        for _ in range(20):
            a = adversarial_matrix(rng, (3, 4)) + 1j * adversarial_matrix(rng, (3, 4))
            b = adversarial_matrix(rng, (4, 3)) + 1j * adversarial_matrix(rng, (4, 3))
            c = adversarial_matrix(rng, (3, 3)) + 1j * adversarial_matrix(rng, (3, 3))
            assert biteq(one_mma(a, b, c), scalar_mma_fp32c(a, b, c))

    def test_max_shift_cancellation(self):
        # Max-magnitude products against subnormal dust: the accumulator
        # anchor jumps by far more than the 48-bit window, and the large
        # terms cancel so the re-rounded residue decides the result.
        a = np.array([[3.4028235e38, -3.4028235e38, 1e-45, 1.1754942e-38, 1.0]])
        b = np.array([[3.4028234e38], [3.4028234e38], [1e-45], [-1e-45], [2.0**-24]])
        aq, bq = quantize(a, FP32), quantize(b, FP32)
        v = one_mma(aq, bq, 0.0)
        assert biteq(v, scalar_mma_fp32(aq, bq, 0.0))
        assert biteq(v[0, 0], np.float64(bit_level_fp32_dot(aq[0], bq[:, 0], 0.0)))

    def test_complex_sign_flip_cancellation(self, rng):
        # Pure-imaginary rows: the real accumulator sees only the negated
        # imag*imag lanes (Eq. 9's subtraction), exercising the sign mask.
        a = 1j * adversarial_matrix(rng, (3, 5))
        b = 1j * adversarial_matrix(rng, (5, 2))
        v = one_mma(a, b, 0.0)
        assert biteq(v, scalar_mma_fp32c(a, b, 0.0))
        ref = np.array([
            [bit_level_fp32c_dot(a[m], b[:, n], 0.0) for n in range(2)]
            for m in range(3)
        ])
        assert biteq(v, ref)

    def test_signed_zero_inputs(self):
        # -0.0 operands contribute zero-significand products; like the
        # scalar oracle, the empty accumulation yields +0.0 (the window
        # has no sign to preserve), and a negative residue that rounds
        # to zero yields -0.0 — both engines must agree on both.
        a = np.array([[-0.0, 0.0, -0.0, 0.0]])
        b = np.array([[-0.0], [0.0], [-0.0], [-0.0]])
        c = np.array([[-0.0]])
        v = one_mma(a, b, c)
        s = scalar_mma_fp32(a, b, c)
        assert biteq(v, s)
        assert biteq(v[0, 0], np.float64(bit_level_fp32_dot(a[0], b[:, 0], -0.0)))
        # Negative value rounding to zero: signed zero comes out.
        tiny = quantize(np.array([[-1e-45]]), FP32)
        tb = quantize(np.array([[1e-45]]), FP32)
        v2 = one_mma(tiny, tb, 0.0)
        assert biteq(v2, scalar_mma_fp32(tiny, tb, 0.0))
        assert v2[0, 0] == 0.0 and np.signbit(v2[0, 0])


class TestGemmEngineIdentity:
    def test_sgemm_engines_identical(self, rng, monkeypatch):
        a = rng.standard_normal((9, 17)) * 10.0 ** rng.integers(-5, 5, (9, 17))
        b = rng.standard_normal((17, 8))
        monkeypatch.setenv("REPRO_BITLEVEL", "vector")
        vec = mxu_sgemm(a, b, fused=False)
        monkeypatch.setenv("REPRO_BITLEVEL", "scalar")
        assert biteq(mxu_sgemm(a, b, fused=False), vec)

    def test_cgemm_engines_identical(self, rng, monkeypatch):
        a = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        b = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        monkeypatch.setenv("REPRO_BITLEVEL", "vector")
        vec = mxu_cgemm(a, b, fused=False)
        monkeypatch.setenv("REPRO_BITLEVEL", "scalar")
        assert biteq(mxu_cgemm(a, b, fused=False), vec)

    def test_study_workers_identical_bitlevel(self):
        # The bit-level roster through the accuracy-study fan-out: the
        # result must not depend on the worker count.
        serial = sgemm_accuracy_study(
            m=6, n=6, k=12, impls=BITLEVEL_SGEMM_IMPLS, workers=1, use_cache=False)
        fanned = sgemm_accuracy_study(
            m=6, n=6, k=12, impls=BITLEVEL_SGEMM_IMPLS, workers=4, use_cache=False)
        assert serial == fanned


class TestFaultInjectionParity:
    def test_random_product_faults_agree(self, rng):
        a = quantize(rng.standard_normal((4, 4)), FP32)
        b = quantize(rng.standard_normal((4, 4)), FP32)
        for mode, va, vb in (
            (MXUMode.FP32, a, b),
            (MXUMode.FP32C,
             quantize_complex(a + 1j * b, FP32),
             quantize_complex(b - 1j * a, FP32)),
        ):
            n_slots = product_slot_count(mode, 4)
            fn_v = one_mma
            fn_s = scalar_mma_fp32 if mode is MXUMode.FP32 else scalar_mma_fp32c
            for _ in range(10):
                pf = ProductFault(
                    slot=int(rng.integers(n_slots)),
                    element=(int(rng.integers(4)), int(rng.integers(4))),
                    bit=int(rng.integers(24)),
                )
                assert biteq(
                    fn_v(va, vb, 0.0, product_fault=pf),
                    fn_s(va, vb, 0.0, product_fault=pf),
                )

    def test_faulty_unit_engine_parity(self, rng):
        # The same armed FaultSpec through FaultyM3XU resolves to the
        # same injected upset and the same corrupted output per engine.
        a = rng.standard_normal((6, 8))
        b = rng.standard_normal((8, 5))
        for stage in BITLEVEL_STAGES:
            spec = FaultSpec.random(np.random.default_rng(99), stage, n_calls=2)
            outs = []
            for engine in ("vector", "scalar"):
                unit = FaultyM3XU(spec, BitLevelMXU(engine=engine))
                outs.append(mxu_sgemm(a, b, mxu=unit))
                assert unit.fired
            assert biteq(outs[0], outs[1]), stage

    def test_product_fault_requires_bitlevel_unit(self, rng):
        from repro.mxu.m3xu import M3XU

        spec = FaultSpec(stage=FaultStage.PRODUCT)
        with pytest.raises(ValueError):
            mxu_sgemm(np.ones((4, 4)), np.ones((4, 4)), mxu=FaultyM3XU(spec, M3XU()))


class TestCampaignEngineIdentity:
    def test_campaign_records_identical_across_engines(self, monkeypatch):
        records = {}
        for engine in ("vector", "scalar"):
            monkeypatch.setenv("REPRO_BITLEVEL", engine)
            cfg = CampaignConfig(
                trials=10, m=10, n=8, k=8, engine="bitlevel",
                stages=BITLEVEL_STAGES,
            )
            records[engine] = run_campaign(cfg).records
        assert records["vector"] == records["scalar"]

    def test_product_stage_needs_bitlevel_engine(self):
        with pytest.raises(ValueError):
            CampaignConfig(stages=BITLEVEL_STAGES, engine="m3xu")


# ---------------------------------------------------------------------------
# Hypothesis-randomized sweeps
# ---------------------------------------------------------------------------

vals = st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e30, max_value=1e30)


@given(data=st.lists(vals, min_size=12, max_size=12),
       cval=vals)
@settings(max_examples=40, deadline=None)
def test_fp32_tile_identity_sweep(data, cval):
    a = quantize(np.array(data[:6]).reshape(2, 3), FP32)
    b = quantize(np.array(data[6:]).reshape(3, 2), FP32)
    c = quantize(np.full((2, 2), cval), FP32)
    assert biteq(one_mma(a, b, c), scalar_mma_fp32(a, b, c))


@given(data=st.lists(vals, min_size=24, max_size=24))
@settings(max_examples=30, deadline=None)
def test_fp32c_tile_identity_sweep(data):
    re = np.array(data[:12])
    im = np.array(data[12:])
    a = quantize_complex((re[:6] + 1j * im[:6]).reshape(2, 3), FP32)
    b = quantize_complex((re[6:] + 1j * im[6:]).reshape(3, 2), FP32)
    assert biteq(one_mma(a, b, 0.0), scalar_mma_fp32c(a, b, 0.0))


@given(scale_a=st.integers(min_value=-30, max_value=30),
       scale_b=st.integers(min_value=-30, max_value=30),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_scaled_gemm_identity_sweep(scale_a, scale_b, seed):
    # Wildly mismatched operand magnitudes force large accumulator
    # anchor jumps mid-sequence — the hardest case for the window logic.
    r = np.random.default_rng(seed)
    a = quantize(r.standard_normal((3, 8)) * 2.0**scale_a, FP32)
    b = quantize(r.standard_normal((8, 3)) * 2.0**scale_b, FP32)
    assert biteq(one_mma(a, b, 0.0), scalar_mma_fp32(a, b, 0.0))
