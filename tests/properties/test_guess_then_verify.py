"""Guess, then verify: the chain loop's deferred fallback stays bit-exact.

:func:`repro.mxu.fused._fast_chain` lets a failing element with a narrow
interval take the FP32 rounding of its float64 sum and move on; one
fallback call per chunk width checks every guess after the last chunk,
and an element with a wrong guess, or one that failed unguessably after
a guess, restarts from a verified value. This suite pins the cost
(fallback calls per chain) and the bits: hand-built wrong guesses and
restarts at both levels, and the adversarial and edge corpora with a
radius so wide that many elements are guessed several times per chain.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gemm.tiled import TiledGEMM
from repro.mxu import fused, vectorized
from repro.mxu.m3xu import M3XU
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import (
    BitLevelMXU,
    NonFiniteOperandError,
    chained_vector_fp32,
    chained_vector_fp32c,
)
from repro.types.formats import FP32
from repro.types.quantize import quantize
from tests.properties import test_bitlevel_vector_equivalence as bitlevel_suite
from tests.properties.test_fastpath_equivalence import (
    biteq,
    chain_edge_operands,
    complex_operands,
    real_operands,
    reference_gemm,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: The engine entry point and fallback name of each level.
LEVELS = {
    "value": (lambda a, b, c, mode, k: M3XU().chain(a, b, c, mode, k), fused, "_fallback_windowed"),
    "bit": (
        lambda a, b, c, mode, k: BitLevelMXU(engine="vector").chain(a, b, c, mode, k),
        vectorized,
        "_running_anchor_fallback",
    ),
}


def _spy(monkeypatch, module, name):
    """Record the output size of every call of ``module.name``."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        out = real(*args)
        calls.append(out.size)
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def _records(monkeypatch):
    """Record how many guesses each element of every settled chain had."""
    counts = []
    real = fused._settle

    def spy(a, b, acc, marks, records, *args):
        sel = np.concatenate([r[1] for r in records])
        counts.append(np.bincount(sel).max())
        return real(a, b, acc, marks, records, *args)

    monkeypatch.setattr(fused, "_settle", spy)
    return counts


def _restarts(monkeypatch):
    """Record the elements of every :func:`fused._restart` call."""
    calls = []
    real = fused._restart

    def spy(a, b, acc, sel, *args):
        calls.append(sel.size)
        return real(a, b, acc, sel, *args)

    monkeypatch.setattr(fused, "_restart", spy)
    return calls


@pytest.mark.parametrize("level", LEVELS)
def test_a_chain_makes_one_or_two_fallback_calls(level, monkeypatch):
    # A 64^3 FP32 chain of 16 MMAs has a few failing elements in 2-9 of
    # its chunks (seeds 0-19). Guessed, they share one settle call.
    chain, module, name = LEVELS[level]
    calls = _spy(monkeypatch, module, name)
    counts = []
    for seed in range(20):
        a, b, c = real_operands(np.random.default_rng(seed), 64, 64, 64)
        calls.clear()
        chain(a, b, c, MXUMode.FP32, 4)
        counts.append(len(calls))
    assert max(counts) <= 2, counts
    assert min(counts) >= 1  # every chain had something to verify


def _near_tie_chain(k_chunk, chunk, complex_=False):
    """A 1x1 chain of three MMAs whose *chunk* sums to 1 + 2^-24 + 2^-50.

    Float64 keeps the 2^-50 that the 48-bit window rounds away, so the
    FP32 guess is 1 + 2^-23 where every model rounds the tie 1 + 2^-24 to
    1.0. The chain's other chunks add 1 (chunk 0) and 2^-20, so it ends at
    0x1.00001p+0; a kept wrong guess would give 0x1.000012p+0.
    """
    a = np.zeros((1, 3 * k_chunk))
    b = np.ones((3 * k_chunk, 1))
    a[0, 0] = 1.0
    a[0, (2 if chunk == 1 else 1) * k_chunk] = 2.0**-20
    a[0, chunk * k_chunk] = 2.0**-24
    a[0, chunk * k_chunk + 1] = 2.0**-50
    if complex_:
        # Ar*Br and Ar*Bi: both registers see the chain.
        return a + 0j, b * (1 + 1j)
    return a, b


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
@pytest.mark.parametrize("chunk", [1, 2])
def test_a_wrong_guess_restarts_from_the_verified_value(level, mode, chunk, monkeypatch):
    complex_ = mode is MXUMode.FP32C
    k_chunk = 2 if complex_ else 4
    a, b = _near_tie_chain(k_chunk, chunk, complex_)
    restarts = _restarts(monkeypatch)
    got = LEVELS[level][0](a, b, 0.0, mode, k_chunk)
    assert sum(restarts) == (2 if complex_ else 1)
    want = (
        BitLevelMXU(engine="scalar").chain(a, b, 0.0, mode, k_chunk)
        if level == "bit"
        else reference_gemm(M3XU(), a, b, 0.0, mode)
    )
    assert biteq(got, want)
    for part in (got.real, got.imag) if complex_ else (got,):
        assert float(part[0, 0]).hex() == "0x1.0000100000000p+0"


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
def test_a_restart_begins_at_the_first_wrong_guess(level, mode, monkeypatch):
    # Chunk 1 guesses 1 + 2^-23 where the models give 1.0. From that
    # made-up C, chunk 2 (+ 2^-24 - 2^-50) guesses 1 + 2^-23 where the
    # models give 1 + 2^-22: wrong again, but from a C that is not exact.
    # From 1.0, chunk 2 gives 1.0 and the chain ends at 1 + 2^-20.
    complex_ = mode is MXUMode.FP32C
    k_chunk = 2 if complex_ else 4
    a = np.zeros((1, 4 * k_chunk))
    a[0, 0] = 1.0
    a[0, k_chunk : k_chunk + 2] = 2.0**-24, 2.0**-50
    a[0, 2 * k_chunk : 2 * k_chunk + 2] = 2.0**-24, -(2.0**-50)
    a[0, 3 * k_chunk] = 2.0**-20
    b = np.ones((4 * k_chunk, 1))
    if complex_:
        a, b = a + 0j, b * (1 + 1j)
    restarts = _restarts(monkeypatch)
    got = LEVELS[level][0](a, b, 0.0, mode, k_chunk)
    assert sum(restarts) == (2 if complex_ else 1)
    want = (
        BitLevelMXU(engine="scalar").chain(a, b, 0.0, mode, k_chunk)
        if level == "bit"
        else reference_gemm(M3XU(), a, b, 0.0, mode)
    )
    assert biteq(got, want)
    for part in (got.real, got.imag) if complex_ else (got,):
        assert part[0, 0] == 1 + 2.0**-20


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
def test_a_right_guess_then_a_zero_restarts_from_the_guess(level, mode, monkeypatch):
    # Chunk 0 sums to the tie 1 + 2^-24, which every model and the guess
    # round to 1.0. Chunk 1 subtracts 1: an exact zero, which must resolve
    # through the fallback, so the element stops and restarts after chunk
    # 0. Kept, the stopped chain would end at 2^-20 - 2^-40, not 2^-20.
    complex_ = mode is MXUMode.FP32C
    k_chunk = 2 if complex_ else 4
    a = np.zeros((1, 3 * k_chunk))
    a[0, :2] = 1.0, 2.0**-24
    a[0, k_chunk] = -1.0
    a[0, 2 * k_chunk] = 2.0**-20
    b = np.ones((3 * k_chunk, 1))
    if complex_:
        a, b = a + 0j, b * (1 + 1j)
    restarts = _restarts(monkeypatch)
    got = LEVELS[level][0](a, b, 0.0, mode, k_chunk)
    assert sum(restarts) == (2 if complex_ else 1)
    want = (
        BitLevelMXU(engine="scalar").chain(a, b, 0.0, mode, k_chunk)
        if level == "bit"
        else reference_gemm(M3XU(), a, b, 0.0, mode)
    )
    assert biteq(got, want)
    for part in (got.real, got.imag) if complex_ else (got,):
        assert part[0, 0] == 2.0**-20


@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
def test_a_made_up_c_never_reaches_the_fallback(mode):
    # Chunk 0 of the real register sums to 2^127 (1 + 2^-24 + 2^-50), so
    # its guess 2^127 (1 + 2^-23) is wrong; chunk 1 adds 2^127 (1 - 2^-23).
    # From the guess the register overflows, and chunk 2 fails on an
    # infinite C, which the bit-level fallback rejects. From the verified
    # value the chain ends at the FP32 maximum.
    top = 2.0**127
    if mode is MXUMode.FP32:
        a = np.zeros((1, 12))
        a[0, :3] = top, 2.0**103, 2.0**77
        a[0, 4] = top * (1 - 2.0**-23)
        b, k_chunk = np.ones((12, 1)), 4
    else:
        # Re = Ar*Br - Ai*Bi with B = 1 - 1j in chunk 0 and 1 after it;
        # Im ends at -(2^127 - 2^103), proven in chunk 0.
        a = np.array([[top + 2.0**103 * 1j, 2.0**77, top * (1 - 2.0**-23), 0, 0, 0]])
        b = np.array([[1 - 1j], [1 - 1j], [1], [1], [1], [1]], dtype=np.complex128)
        k_chunk = 2
    got = BitLevelMXU(engine="vector").chain(a, b, 0.0, mode, k_chunk)
    assert biteq(got, BitLevelMXU(engine="scalar").chain(a, b, 0.0, mode, k_chunk))
    assert biteq(got, M3XU().chain(a, b, 0.0, mode, k_chunk))
    assert got.real[0, 0] == np.finfo(np.float32).max


@pytest.fixture
def wide_radius(monkeypatch):
    """Scale the proof's radius up 2^10: most failing elements are then
    guessed, and many fail again later in their chain."""
    real = fused._radius
    monkeypatch.setattr(fused, "_radius", lambda *args: real(*args) * 2.0**10)


class TestAdversarialWideRadius(bitlevel_suite.TestAdversarialBitIdentity):
    """The adversarial bit-level corpus, guessing everywhere it can."""

    @pytest.fixture(autouse=True)
    def _wide(self, wide_radius):
        pass


def _outcome(fn):
    try:
        return fn()
    except NonFiniteOperandError as exc:
        return type(exc)


@pytest.mark.usefixtures("wide_radius")
@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
def test_adversarial_chains_with_a_wide_radius(mode, monkeypatch):
    rng = np.random.default_rng(7)
    complex_ = mode is MXUMode.FP32C
    k_chunk = 2 if complex_ else 4

    def draw(shape):
        x = bitlevel_suite.adversarial_matrix(rng, shape)
        return x + 1j * bitlevel_suite.adversarial_matrix(rng, shape) if complex_ else x

    for _ in range(12):
        a, b, c = draw((4, 5 * k_chunk)), draw((5 * k_chunk, 3)), draw((4, 3))
        got, want = (
            _outcome(lambda: BitLevelMXU(engine=e).chain(a, b, c, mode, k_chunk))
            for e in ("vector", "scalar")
        )
        assert got is want if isinstance(want, type) else biteq(got, want)
    # Well-scaled data with the wide radius: elements guessed in several
    # chunks of one chain.
    records = _records(monkeypatch)
    for seed in range(4):
        draw_ops = complex_operands if complex_ else real_operands
        a, b, c = draw_ops(np.random.default_rng(seed), 6, 8 * k_chunk, 5)
        records.clear()
        got = chained_vector_fp32c(a, b, c, k_chunk=k_chunk) if complex_ else (
            chained_vector_fp32(a, b, c, k_chunk=k_chunk)
        )
        assert biteq(got, BitLevelMXU(engine="scalar").chain(a, b, c, mode, k_chunk))
        assert max(records) >= 2


@pytest.mark.usefixtures("wide_radius")
@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
@pytest.mark.parametrize("case", ["nonfinite", "overflow", "zero_sums", "neg_zero_c", "random"])
def test_value_level_edge_inputs_with_a_wide_radius(mode, case, rng, monkeypatch):
    records = _records(monkeypatch)
    if case == "random":
        draw_ops = complex_operands if mode is MXUMode.FP32C else real_operands
        a, b, c = draw_ops(rng, 9, 37, 7)
    else:
        a, b, c = chain_edge_operands(case, rng, mode)
    mxu = M3XU()
    got = TiledGEMM(mxu, mode, abft=False).run(a, b, c)
    assert biteq(got, reference_gemm(mxu, a, b, c, mode))
    if case == "random":
        assert max(records) >= 2


def test_value_level_batched_chains_with_a_wide_radius(rng, wide_radius):
    # Leading batch axes share the gather: panels index the batch too.
    a = quantize(rng.standard_normal((3, 6, 20)), FP32)
    b = quantize(rng.standard_normal((3, 20, 5)), FP32)
    c = quantize(rng.standard_normal((3, 6, 5)), FP32)
    got = M3XU().chain(a, b, c, MXUMode.FP32, 4)
    assert biteq(got, reference_gemm(M3XU(), a, b, c, MXUMode.FP32))


def test_no_numpy_ma_import():
    # numpy.ma costs about 1.7 MB of RSS; np.unique imports it on numpy 2.4.
    code = """
import sys
import numpy as np
import repro
from repro.gemm.tiled import mxu_cgemm, mxu_sgemm
from repro.mxu.vectorized import chained_vector_fp32

rng = np.random.default_rng(0)
mxu_sgemm(rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))
mxu_cgemm(rng.standard_normal((32, 32)) + 1j, rng.standard_normal((32, 32)) - 1j)
# Every chunk of every row cancels exactly: exact zeros always fall back.
a = np.ones((4, 8))
a[:, 1::2] = -1.0
chained_vector_fp32(a, np.ones((8, 3)), 0.0)
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
