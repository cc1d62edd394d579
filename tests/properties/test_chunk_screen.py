"""The chain loop's chunk screen changes no bit.

:func:`repro.mxu.fused._fast_chain` first tests each chunk of an output of
at least ``_SCREEN_MIN_SIZE`` elements against one scalar radius, at least
every element's own, and gives only the elements it leaves their own
radius; a chain whose screen leaves more than ``_SCREEN_MAX_LEFT`` of its
elements takes the per-element radius from that chunk on. Few test chains
are that large, so this suite runs the adversarial and edge corpora with
the size rule patched to 0, checks that forcing the screen on or off
changes neither the output nor any argument of ``_guess`` or the
fallback, and pins the two rules with a spy on the interval test.
"""

import numpy as np
import pytest

from repro.gemm.tiled import TiledGEMM
from repro.mxu import fused, vectorized
from repro.mxu.m3xu import M3XU
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import BitLevelMXU
from repro.types.formats import FP32
from repro.types.quantize import quantize, quantize_complex
from tests.properties import test_bitlevel_vector_equivalence as bitlevel_suite
from tests.properties import test_fastpath_equivalence as fastpath_suite
from tests.properties.test_fastpath_equivalence import biteq, chain_edge_operands, reference_gemm
from tests.properties.test_guess_then_verify import _outcome

EDGE_CASES = ["nonfinite", "overflow", "zero_sums", "neg_zero_c", "random"]


@pytest.fixture
def screen_everywhere(monkeypatch):
    """Screen every chain, whatever its size."""
    monkeypatch.setattr(fused, "_SCREEN_MIN_SIZE", 0)


def _same(got, want):
    return got is want if isinstance(want, type) else biteq(got, want)


class TestAdversarialScreened(bitlevel_suite.TestAdversarialBitIdentity):
    """The adversarial bit-level corpus with every chain screened."""

    @pytest.fixture(autouse=True)
    def _screened(self, screen_everywhere):
        pass


class TestBroadcastOperandsScreened(fastpath_suite.TestBroadcastOperands):
    """Broadcast C and shared-A stacks with every chain screened."""

    @pytest.fixture(autouse=True)
    def _screened(self, screen_everywhere):
        pass


@pytest.mark.usefixtures("screen_everywhere")
@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
def test_value_level_adversarial_tiles_screened(mode):
    rng = np.random.default_rng(2024)
    complex_ = mode is MXUMode.FP32C
    k_chunk = 2 if complex_ else 4

    def draw(shape):
        x = bitlevel_suite.adversarial_matrix(rng, shape)
        return x + 1j * bitlevel_suite.adversarial_matrix(rng, shape) if complex_ else x

    for _ in range(20):
        a, b, c = draw((4, 5 * k_chunk)), draw((5 * k_chunk, 3)), draw((4, 3))
        got = M3XU().chain(a, b, c, mode, k_chunk)
        assert biteq(got, reference_gemm(M3XU(), a, b, c, mode))


@pytest.mark.usefixtures("screen_everywhere")
@pytest.mark.parametrize("level", ["value", "bit"])
@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_chain_edge_inputs_screened(level, mode, case, rng):
    # abft=False: the checksum guard raises on non-finite results.
    a, b, c = chain_edge_operands(case, rng, mode)
    if level == "value":
        unit, oracle = M3XU(), lambda: reference_gemm(M3XU(), a, b, c, mode)
    else:
        scalar = BitLevelMXU(engine="scalar")
        unit, oracle = BitLevelMXU(engine="vector"), lambda: (
            TiledGEMM(scalar, mode, abft=False).run(a, b, c)
        )
    got = _outcome(lambda: TiledGEMM(unit, mode, abft=False).run(a, b, c))
    assert _same(got, _outcome(oracle))


def _q(x):
    return quantize_complex(x, FP32) if np.iscomplexobj(x) else quantize(x, FP32)


def screen_case(name, rng, m=64, k=64, n=64):
    """``(mode, a, b, c)`` of one forced-screen case."""
    def normal(*shape):
        return rng.standard_normal(shape)

    a, b, c = normal(m, k), normal(k, n), normal(m, n)
    mode = MXUMode.FP32
    if name == "rows":
        a *= 2.0 ** rng.choice([-30, 30], size=(m, 1))
    elif name == "cols":
        b *= 2.0 ** rng.choice([-30, 30], size=(1, n))
    elif name == "small_ints":
        # Exact zeros, and sums on 2^24 + odd: FP32 ties.
        a, b = (rng.integers(-3, 4, x.shape).astype(float) for x in (a, b))
        c = 2.0**24 * rng.integers(-1, 2, c.shape)
    elif name == "nonfinite":
        tiny = np.array([1e-45, -1e-45, 1.1754942e-38, -2.0**-140])
        a[rng.random(a.shape) < 0.1] = rng.choice(tiny)
        b[rng.random(b.shape) < 0.1] = rng.choice(tiny)
        a[3, 7], b[11, 5], c[8, 2], c[9, 9] = np.nan, np.inf, -np.inf, np.nan
    elif name == "cancelling":
        a[m // 2 :] = -a[: m - m // 2]
        a[0] = a[1] * (1 + 2.0**-20)
        c[m // 2 :] = 0.0
    elif name == "row_c":
        c = normal(n)
    elif name == "stack":
        a, b, c = normal(3, m, k), normal(3, k, n), normal(m, n)
    elif name == "fp32c":
        mode = MXUMode.FP32C
        a, b, c = (x + 1j * normal(*x.shape) for x in (a, b, c))
    return mode, _q(a), _q(b), _q(c)


SCREEN_CASES = [
    "normal", "rows", "cols", "small_ints", "nonfinite", "cancelling", "row_c", "stack", "fp32c",
]


def _recorded_run(monkeypatch, level, mode, a, b, c, screened):
    """The output, or the error, of one chain with the screen forced on or
    off, with the arguments of every ``_guess`` and fallback call in order
    and the number of screened interval tests."""
    calls, screens = [], []
    real_guess, real_undecided = fused._guess, fused._undecided

    def guess(i, sel, c_sel, lo, hi, fast, *rest):
        calls.append(("guess", i, *(x.tobytes() for x in (sel, c_sel, lo, hi, fast))))
        return real_guess(i, sel, c_sel, lo, hi, fast, *rest)

    def undecided(fast, err, *ends):
        screens.append(np.ndim(err) == 0)
        return real_undecided(fast, err, *ends)

    module, name = (
        (fused, "_fallback_windowed") if level == "value"
        else (vectorized, "_running_anchor_fallback")
    )
    real_fallback = getattr(module, name)

    def fallback(*args):
        calls.append(("fallback", *(np.asarray(x).tobytes() for x in args[-3:])))
        return real_fallback(*args)

    unit = M3XU() if level == "value" else BitLevelMXU(engine="vector")
    k_chunk = 2 if mode is MXUMode.FP32C else 4
    with monkeypatch.context() as patch:
        patch.setattr(fused, "_SCREEN_MIN_SIZE", 0 if screened else np.inf)
        patch.setattr(fused, "_SCREEN_MAX_LEFT", 1.0)
        patch.setattr(fused, "_guess", guess)
        patch.setattr(fused, "_undecided", undecided)
        patch.setattr(module, name, fallback)
        out = _outcome(lambda: unit.chain(a, b, c, mode, k_chunk))
    return out, calls, sum(screens)


@pytest.mark.parametrize("level", ["value", "bit"])
@pytest.mark.parametrize("case", SCREEN_CASES)
def test_forcing_the_screen_changes_nothing(level, case, rng, monkeypatch):
    mode, a, b, c = screen_case(case, rng)
    if level == "bit" and a.ndim > 2:
        pytest.skip("the vector engine takes 2-D tiles")
    if level == "bit" and case == "nonfinite":
        pytest.skip("the vector engine rejects non-finite operands before the chain")
    on, on_calls, on_screens = _recorded_run(monkeypatch, level, mode, a, b, c, True)
    off, off_calls, off_screens = _recorded_run(monkeypatch, level, mode, a, b, c, False)
    assert on_screens > 0 and off_screens == 0
    assert _same(on, off)
    assert on_calls and on_calls == off_calls


def _chunk_screens(monkeypatch, a, b):
    """Per chunk of one FP32 chain, whether each whole-output interval
    test used the screen's scalar radius."""
    shape = (a.shape[0], b.shape[1])
    tests = []
    real = fused._undecided

    def spy(fast, err, *ends):
        if fast.shape == shape:
            tests.append(np.ndim(err) == 0)
        return real(fast, err, *ends)

    with monkeypatch.context() as patch:
        patch.setattr(fused, "_undecided", spy)
        M3XU().chain(a, b, 0.0, MXUMode.FP32, 4)
    return tests


class TestScreenRules:
    """The two fixed rules that keep the screen where it pays."""

    K = 64  # 16 chunks

    def _operands(self, rng, m, n):
        return _q(rng.standard_normal((m, self.K))), _q(rng.standard_normal((self.K, n)))

    CHUNKS = K // 4

    def test_an_output_below_the_size_rule_never_screens(self, rng, monkeypatch):
        # 127 x 129 is one element short of the rule.
        for m, n in ((127, 129), (16, 16), (128, 8)):
            screens = _chunk_screens(monkeypatch, *self._operands(rng, m, n))
            assert screens == [False] * self.CHUNKS

    def test_scaled_rows_leave_the_screen_after_the_first_chunk(self, rng, monkeypatch):
        a, b = self._operands(rng, 128, 128)
        a = a * 2.0 ** rng.choice([-30, 30], size=(128, 1))
        # Chunk 0 screens, leaves and runs the per-element radius; every
        # later chunk runs it alone.
        assert _chunk_screens(monkeypatch, a, b) == [True] + [False] * self.CHUNKS

    def test_standard_normal_data_stays_screened(self, rng, monkeypatch):
        screens = _chunk_screens(monkeypatch, *self._operands(rng, 128, 128))
        assert screens == [True] * self.CHUNKS
