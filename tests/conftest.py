"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; per-test isolation via a fixed seed."""
    return np.random.default_rng(0xC0FFEE)


def fp32_array(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """Random FP32-representable values (float64 storage)."""
    from repro.types import FP32, quantize

    return quantize(rng.normal(size=shape) * scale, FP32)


def fp32c_array(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    from repro.types import FP32, quantize_complex

    return quantize_complex(
        (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale, FP32
    )


@pytest.fixture
def no_floor(monkeypatch):
    """Every GEMM fans out, one column block per worker. Set before the
    pool forks, so the workers' nested calls see it too."""
    from repro.gemm import tiled

    monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 1)


def spy_blocks(monkeypatch) -> list[list[int]]:
    """Record the column widths of every fanned-out call's blocks."""
    from repro.gemm import tiled

    calls: list[list[int]] = []
    real = tiled.parallel_map

    def spy(fn, tasks, **kw):
        calls.append([task[2].shape[-1] for task in tasks])
        return real(fn, tasks, **kw)

    monkeypatch.setattr(tiled, "parallel_map", spy)
    return calls
