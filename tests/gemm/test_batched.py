"""Batched GEMM entry points."""

import numpy as np
import pytest

from repro import parallel
from repro.gemm import batched_mxu_cgemm, batched_mxu_sgemm, mxu_cgemm, mxu_sgemm, strided_batch_view
from repro.types import FP32, quantize


class TestBatchedSgemm:
    def test_each_batch_matches_single(self, rng):
        a = quantize(rng.normal(size=(3, 8, 12)), FP32)
        b = quantize(rng.normal(size=(3, 12, 8)), FP32)
        d = batched_mxu_sgemm(a, b)
        for i in range(3):
            np.testing.assert_array_equal(d[i], mxu_sgemm(a[i], b[i]))

    def test_shape_checks(self, rng):
        with pytest.raises(ValueError):
            batched_mxu_sgemm(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            batched_mxu_sgemm(np.zeros((2, 4, 5)), np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            batched_mxu_sgemm(np.zeros((4, 4)), np.zeros((4, 4)))


class TestBatchedCgemm:
    def test_each_batch_matches_single(self, rng):
        a = rng.normal(size=(2, 4, 6)) + 1j * rng.normal(size=(2, 4, 6))
        b = rng.normal(size=(2, 6, 4)) + 1j * rng.normal(size=(2, 6, 4))
        d = batched_mxu_cgemm(a, b)
        for i in range(2):
            np.testing.assert_array_equal(d[i], mxu_cgemm(a[i], b[i]))


class TestEngineVariants:
    """Every engine configuration is bit-identical to serial."""

    def test_workers_and_pool_modes_identical(self, rng):
        a = rng.normal(size=(5, 6, 10))
        b = rng.normal(size=(5, 10, 4))
        want = batched_mxu_sgemm(a, b, workers=1)
        for kwargs in (
            {"workers": 2},
            {"workers": 8},            # more workers than matrices
        ):
            got = batched_mxu_sgemm(a, b, **kwargs)
            assert got.tobytes() == want.tobytes(), kwargs

    def test_shm_path_identical(self, rng, monkeypatch):
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)  # force shm transfer
        a = rng.normal(size=(4, 5, 8)) + 1j * rng.normal(size=(4, 5, 8))
        b = rng.normal(size=(4, 8, 5)) + 1j * rng.normal(size=(4, 8, 5))
        want = batched_mxu_cgemm(a, b, workers=1)
        got = batched_mxu_cgemm(a, b, workers=3)
        assert got.tobytes() == want.tobytes()


class TestStridedView:
    def test_no_copy(self):
        x = np.arange(24.0)
        v = strided_batch_view(x, 2, 3)
        assert v.shape == (4, 2, 3)
        assert v.base is not None  # a view, not a copy

    def test_rejects_partial(self):
        with pytest.raises(ValueError):
            strided_batch_view(np.arange(10.0), 3, 2)
