"""Bit-identity of the vectorized bit-level engine against the scalar oracle.

The vectorized datapath (:mod:`repro.mxu.vectorized`; one MMA is the
one-chunk call of its chained kernel) claims *bit-identical* results to
the scalar :class:`~repro.mxu.bitlevel.BitAccumulator` reference
— across modes, adversarial operands (subnormals, signed zeros, extreme
exponent spans, cancellation, the complex sign-flip), injected product
faults, campaign runs, and parallel-worker fan-out. This suite holds the
claim with exhaustive fixed corpora plus hypothesis-randomized sweeps.
The engine settles most elements with a float64 proof and runs the lane
products for the rest, so the adversarial corpus also runs with the
proof forced to fail everywhere, which tests the fallback on full tiles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm.tiled import mxu_cgemm, mxu_sgemm
from repro.mxu import fused, vectorized
from repro.mxu.bitlevel import bit_level_chain
from repro.mxu.faults import FaultSpec, FaultStage, FaultyM3XU
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import (
    BitLevelMXU,
    NonFiniteOperandError,
    ProductFault,
    chained_vector,
    product_slot_count,
)
from repro.resilience.campaign import BITLEVEL_STAGES, CampaignConfig, Outcome, run_campaign
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


def mode_of(a):
    return MXUMode.FP32C if np.iscomplexobj(a) else MXUMode.FP32


def one_mma(a, b, c=0.0, **kw):
    """One MMA on the vector engine: the one-chunk chain (k_chunk = K)."""
    return chained_vector(a, b, c, mode_of(a), k_chunk=a.shape[1], **kw)


def scalar_mma(a, b, c=0.0, **kw):
    """One MMA through the scalar walker, the oracle."""
    return bit_level_chain(a, b, c, mode_of(a), **kw)


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
            assert biteq(one_mma(a, b, c), scalar_mma(a, b, c))

    def test_fp32c_adversarial_tiles(self, rng):
        for _ in range(20):
            a = adversarial_matrix(rng, (3, 4)) + 1j * adversarial_matrix(rng, (3, 4))
            b = adversarial_matrix(rng, (4, 3)) + 1j * adversarial_matrix(rng, (4, 3))
            c = adversarial_matrix(rng, (3, 3)) + 1j * adversarial_matrix(rng, (3, 3))
            assert biteq(one_mma(a, b, c), scalar_mma(a, b, c))

    def test_deep_single_mma_tiles(self, rng):
        # One MMA wider than 32 product slots (K = 16 in FP32, K = 5 in
        # FP32C): its segment totals are summed in int64.
        for _ in range(4):
            a = adversarial_matrix(rng, (3, 16))
            b = adversarial_matrix(rng, (16, 3))
            c = adversarial_matrix(rng, (3, 3))
            assert biteq(one_mma(a, b, c), scalar_mma(a, b, c))
            a = adversarial_matrix(rng, (2, 5)) + 1j * adversarial_matrix(rng, (2, 5))
            b = adversarial_matrix(rng, (5, 2)) + 1j * adversarial_matrix(rng, (5, 2))
            assert biteq(one_mma(a, b, 0.0), scalar_mma(a, b, 0.0))

    def test_max_shift_cancellation(self):
        # Max-magnitude products against subnormal dust: the accumulator
        # anchor jumps by far more than the 48-bit window, and the large
        # terms cancel so the re-rounded residue decides the result.
        a = np.array([[3.4028235e38, -3.4028235e38, 1e-45, 1.1754942e-38, 1.0]])
        b = np.array([[3.4028234e38], [3.4028234e38], [1e-45], [-1e-45], [2.0**-24]])
        aq, bq = quantize(a, FP32), quantize(b, FP32)
        v = one_mma(aq, bq, 0.0)
        assert biteq(v, scalar_mma(aq, bq, 0.0))

    def test_complex_sign_flip_cancellation(self, rng):
        # Pure-imaginary rows: the real accumulator sees only the negated
        # imag*imag lanes (Eq. 9's subtraction), exercising the sign mask.
        a = 1j * adversarial_matrix(rng, (3, 5))
        b = 1j * adversarial_matrix(rng, (5, 2))
        v = one_mma(a, b, 0.0)
        assert biteq(v, scalar_mma(a, b, 0.0))

    def test_signed_zero_inputs(self):
        # -0.0 operands contribute zero-significand products; like the
        # scalar oracle, the empty accumulation yields +0.0 (the window
        # has no sign to preserve), and a negative residue that rounds
        # to zero yields -0.0 — both engines must agree on both.
        a = np.array([[-0.0, 0.0, -0.0, 0.0]])
        b = np.array([[-0.0], [0.0], [-0.0], [-0.0]])
        c = np.array([[-0.0]])
        v = one_mma(a, b, c)
        s = scalar_mma(a, b, c)
        assert biteq(v, s)
        # Negative value rounding to zero: signed zero comes out.
        tiny = quantize(np.array([[-1e-45]]), FP32)
        tb = quantize(np.array([[1e-45]]), FP32)
        v2 = one_mma(tiny, tb, 0.0)
        assert biteq(v2, scalar_mma(tiny, tb, 0.0))
        assert v2[0, 0] == 0.0 and np.signbit(v2[0, 0])


class TestAdversarialFallbackOnly(TestAdversarialBitIdentity):
    """The adversarial corpus again, with the proof forced to fail."""

    @pytest.fixture(autouse=True)
    def _no_proof(self, monkeypatch):
        # An infinite radius settles nothing: every chunk runs the
        # lane-product fallback on the full tile.
        monkeypatch.setattr(fused, "_radius", lambda *args: np.inf)

    def test_fallback_sees_full_tiles(self, rng, monkeypatch):
        rows = []
        real = vectorized._running_anchor_fallback

        def spy(*args):
            out = real(*args)
            rows.append(out.size)
            return out

        monkeypatch.setattr(vectorized, "_running_anchor_fallback", spy)
        a = _rand_fp32(rng, (4, 10))
        b = _rand_fp32(rng, (10, 3))
        chained_vector(a, b, 0.0, MXUMode.FP32, k_chunk=4)
        assert rows == [12, 12, 12]  # every element of all three chunks


def _rand_fp32(rng, shape, complex_=False):
    x = quantize(rng.standard_normal(shape), FP32)
    if complex_:
        x = quantize_complex(x + 1j * quantize(rng.standard_normal(shape), FP32), FP32)
    return x


class TestChainContract:
    """Edges the float64 proof must hand to the fallback or reject."""

    def test_negative_zero_c_returns_positive_zero(self):
        # Every product and C are -0.0; the window has no sign to keep,
        # so the empty sum is +0.0.
        for mode, zero in ((MXUMode.FP32, -0.0), (MXUMode.FP32C, -0.0 - 0.0j)):
            a = np.full((2, 8), zero)
            b = np.ones((8, 3))
            c = np.full((2, 3), zero)
            got = chained_vector(a, b, c, mode, k_chunk=4)
            assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()
            assert biteq(got, np.zeros_like(got))

    def _overflow_chain(self, chunk, sign=1.0):
        # Three 4-wide chunks; 2^127 * 2 overflows FP32 in *chunk* only.
        a = np.ones((1, 12))
        b = np.zeros((12, 1))
        a[0, 4 * chunk] = 2.0**127
        b[4 * chunk, 0] = 2.0 * sign
        return a, b

    def test_overflow_in_a_middle_chunk_raises(self):
        a, b = self._overflow_chain(chunk=1)
        with pytest.raises(NonFiniteOperandError):
            chained_vector(a, b, 0.0, MXUMode.FP32, k_chunk=4)
        with pytest.raises(NonFiniteOperandError):
            BitLevelMXU(engine="scalar").chain(a, b, 0.0, MXUMode.FP32, 4)

    def test_overflow_in_the_last_chunk_returns_inf(self):
        for sign in (1.0, -1.0):
            a, b = self._overflow_chain(chunk=2, sign=sign)
            got = chained_vector(a, b, 0.0, MXUMode.FP32, k_chunk=4)
            assert biteq(got, np.array([[sign * np.inf]]))
            want = BitLevelMXU(engine="scalar").chain(a, b, 0.0, MXUMode.FP32, 4)
            assert biteq(got, want)

    def test_non_fp32_c_raises_where_the_proof_would_pass(self, rng, monkeypatch):
        def must_not_fall_back(*args):
            raise AssertionError("the proof should settle every element")

        for mode in (MXUMode.FP32, MXUMode.FP32C):
            complex_ = mode is MXUMode.FP32C
            a = _rand_fp32(rng, (3, 8), complex_)
            b = _rand_fp32(rng, (8, 2), complex_)
            c = np.full((3, 2), 0.1 + (0.1j if complex_ else 0.0))
            cq = quantize_complex(c, FP32) if complex_ else quantize(c, FP32)
            with monkeypatch.context() as mp:
                mp.setattr(vectorized, "_running_anchor_fallback", must_not_fall_back)
                chained_vector(a, b, cq, mode, k_chunk=4)
                with pytest.raises(ValueError, match="not representable in FP32"):
                    chained_vector(a, b, c, mode, k_chunk=4)

    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
    @pytest.mark.parametrize("chunk", [0, 1, 2])
    def test_product_fault_in_any_chunk_matches_oracle(self, rng, mode, chunk):
        fp32c = mode is MXUMode.FP32C
        k_chunk = 2 if fp32c else 4
        a = _rand_fp32(rng, (3, 3 * k_chunk), fp32c)
        b = _rand_fp32(rng, (3 * k_chunk, 2), fp32c)
        c = _rand_fp32(rng, (3, 2), fp32c)
        per_k = product_slot_count(mode, 1)
        # The H*H lane's top bit of the chunk's last K column: large
        # enough that the flip always reaches the output.
        fault = ProductFault(
            slot=((chunk + 1) * k_chunk - 1) * per_k, element=(2, 1), bit=23
        )
        got, want, clean = (
            BitLevelMXU(engine=engine).chain(a, b, c, mode, k_chunk, product_fault=pf)
            for engine, pf in (("vector", fault), ("scalar", fault), ("vector", None))
        )
        assert biteq(got, want)
        assert got[2, 1] != clean[2, 1]
        assert biteq(np.delete(got.ravel(), 5), np.delete(clean.ravel(), 5))


class TestGemmEngineIdentity:
    def test_sgemm_engines_identical(self, rng, monkeypatch):
        a = rng.standard_normal((9, 17)) * 10.0 ** rng.integers(-5, 5, (9, 17))
        b = rng.standard_normal((17, 8))
        monkeypatch.setenv("REPRO_BITLEVEL", "vector")
        vec = mxu_sgemm(a, b, mxu=BitLevelMXU())
        monkeypatch.setenv("REPRO_BITLEVEL", "scalar")
        assert biteq(mxu_sgemm(a, b, mxu=BitLevelMXU()), vec)

    def test_cgemm_engines_identical(self, rng, monkeypatch):
        a = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        b = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        monkeypatch.setenv("REPRO_BITLEVEL", "vector")
        vec = mxu_cgemm(a, b, mxu=BitLevelMXU())
        monkeypatch.setenv("REPRO_BITLEVEL", "scalar")
        assert biteq(mxu_cgemm(a, b, mxu=BitLevelMXU()), vec)


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
            for _ in range(10):
                pf = ProductFault(
                    slot=int(rng.integers(n_slots)),
                    element=(int(rng.integers(4)), int(rng.integers(4))),
                    bit=int(rng.integers(24)),
                )
                assert biteq(
                    one_mma(va, vb, 0.0, product_fault=pf),
                    scalar_mma(va, vb, 0.0, product_fault=pf),
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
    @pytest.mark.parametrize("mode", ["fp32", "fp32c"])
    def test_campaign_records_identical_across_engines(self, mode, monkeypatch):
        records = {}
        for engine in ("vector", "scalar"):
            monkeypatch.setenv("REPRO_BITLEVEL", engine)
            cfg = CampaignConfig(
                trials=10, m=10, n=8, k=8, engine="bitlevel",
                stages=BITLEVEL_STAGES, mode=mode,
            )
            records[engine] = run_campaign(cfg).records
        assert records["vector"] == records["scalar"]

    @pytest.mark.parametrize("mode", ["fp32", "fp32c"])
    def test_product_fault_campaign_identical_across_engines(self, mode, monkeypatch):
        # Product faults only, and enough trials that some are not masked:
        # a vector engine that dropped its fault would mask them all.
        records = {}
        for engine in ("vector", "scalar"):
            monkeypatch.setenv("REPRO_BITLEVEL", engine)
            cfg = CampaignConfig(
                trials=20, m=10, n=8, k=8, engine="bitlevel",
                stages=(FaultStage.PRODUCT,), mode=mode,
            )
            records[engine] = run_campaign(cfg).records
        assert records["vector"] == records["scalar"]
        assert any(r.outcome is not Outcome.MASKED for r in records["vector"])

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
    assert biteq(one_mma(a, b, c), scalar_mma(a, b, c))


@given(data=st.lists(vals, min_size=24, max_size=24))
@settings(max_examples=30, deadline=None)
def test_fp32c_tile_identity_sweep(data):
    re = np.array(data[:12])
    im = np.array(data[12:])
    a = quantize_complex((re[:6] + 1j * im[:6]).reshape(2, 3), FP32)
    b = quantize_complex((re[6:] + 1j * im[6:]).reshape(3, 2), FP32)
    assert biteq(one_mma(a, b, 0.0), scalar_mma(a, b, 0.0))


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
    assert biteq(one_mma(a, b, 0.0), scalar_mma(a, b, 0.0))
