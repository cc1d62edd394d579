"""Stacks of GEMMs (leading batch axes) through the one tiled driver."""

import numpy as np
import pytest

from repro import parallel
from repro.gemm import mxu_cgemm, mxu_sgemm
from repro.types import FP32, quantize
from tests.conftest import spy_blocks


class TestBatchedSgemm:
    def test_each_batch_matches_single(self, rng):
        a = quantize(rng.normal(size=(3, 8, 12)), FP32)
        b = quantize(rng.normal(size=(3, 12, 8)), FP32)
        d = mxu_sgemm(a, b)
        for i in range(3):
            np.testing.assert_array_equal(d[i], mxu_sgemm(a[i], b[i]))

    def test_shape_checks(self, rng):
        with pytest.raises(ValueError):  # batch mismatch
            mxu_sgemm(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):  # K mismatch
            mxu_sgemm(np.zeros((2, 4, 5)), np.zeros((2, 4, 4)))


class TestBatchedCgemm:
    def test_each_batch_matches_single(self, rng):
        a = rng.normal(size=(2, 4, 6)) + 1j * rng.normal(size=(2, 4, 6))
        b = rng.normal(size=(2, 6, 4)) + 1j * rng.normal(size=(2, 6, 4))
        d = mxu_cgemm(a, b)
        for i in range(2):
            np.testing.assert_array_equal(d[i], mxu_cgemm(a[i], b[i]))


class TestEngineVariants:
    """A stack fans out by columns like any GEMM, bit-identical to serial."""

    @staticmethod
    def check_workers(rng, monkeypatch):
        calls = spy_blocks(monkeypatch)
        a = rng.normal(size=(5, 6, 10))
        b = rng.normal(size=(5, 10, 4))
        ac = a + 1j * rng.normal(size=a.shape)
        bc = b + 1j * rng.normal(size=b.shape)
        for gemm, x, y in ((mxu_sgemm, a, b), (mxu_cgemm, ac, bc)):
            want = gemm(x, y, workers=1)
            for workers in (2, 3, 8):  # 8: more workers than columns
                got = gemm(x, y, workers=workers)
                assert got.tobytes() == want.tobytes(), (gemm.__name__, workers)
        assert calls == [[2, 2], [2, 1, 1], [1, 1, 1, 1]] * 2

    def test_workers_and_pool_modes_identical(self, rng, monkeypatch, no_floor):
        self.check_workers(rng, monkeypatch)

    def test_shm_path_identical(self, rng, monkeypatch, no_floor):
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)  # force shm transfer
        self.check_workers(rng, monkeypatch)
