"""The content-addressed operand split cache: gate, LRU, bit-identity.

The cache's one claim: a hit returns exactly — bit for bit — what the
cold splitting code produces for the same operand bytes, and every knob
(env gate, entry bound, byte bound) only changes *whether* work is
reused, never what the consumers compute.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.gemm.batched import batched_mxu_cgemm, batched_mxu_sgemm
from repro.gemm.plan import OperandSplit
from repro.gemm.tiled import mxu_cgemm, mxu_sgemm
from repro.mxu.modes import MXUMode
from repro.mxu.split_cache import (
    DEFAULT_SPLIT_CACHE,
    SPLIT_CACHE_ENV,
    SPLIT_CACHE_MIN_BYTES,
    SplitCache,
    freeze_arrays,
    operand_digest,
    resolve_split_cache,
    split_cache_probe,
)
from repro.types.formats import FP32
from repro.types.quantize import quantize, quantize_complex


@pytest.fixture(autouse=True)
def _clean_cache():
    DEFAULT_SPLIT_CACHE.clear()
    os.environ.pop(SPLIT_CACHE_ENV, None)
    yield
    DEFAULT_SPLIT_CACHE.clear()
    os.environ.pop(SPLIT_CACHE_ENV, None)


def _big(rng, m=32, k=32):
    """An operand comfortably above the caching floor."""
    x = quantize(rng.standard_normal((m, k)), FP32)
    assert x.nbytes >= SPLIT_CACHE_MIN_BYTES
    return x


class TestResolveSplitCache:
    def test_default_on(self):
        assert resolve_split_cache() is True

    @pytest.mark.parametrize("raw", ["0", "false", "off", "no"])
    def test_env_disables(self, raw):
        os.environ[SPLIT_CACHE_ENV] = raw
        assert resolve_split_cache() is False

    @pytest.mark.parametrize("raw", ["1", "true", "on", "yes"])
    def test_env_enables(self, raw):
        os.environ[SPLIT_CACHE_ENV] = raw
        assert resolve_split_cache() is True

    def test_explicit_overrides_env(self):
        os.environ[SPLIT_CACHE_ENV] = "0"
        assert resolve_split_cache(True) is True
        os.environ[SPLIT_CACHE_ENV] = "1"
        assert resolve_split_cache(False) is False

    def test_malformed_env_warns_and_stays_enabled(self):
        os.environ[SPLIT_CACHE_ENV] = "many"
        with pytest.warns(RuntimeWarning, match="not a boolean"):
            assert resolve_split_cache() is True


class TestSplitCacheLRU:
    def test_entry_bound_evicts_lru(self):
        cache = SplitCache(max_entries=2, max_bytes=1 << 30)
        a, b, c = (np.zeros(8), np.ones(8), np.full(8, 2.0))
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refresh: "b" is now LRU
        cache.put("c", c)
        assert cache.get("b") is None
        assert cache.get("a") is a and cache.get("c") is c
        assert cache.info()["evictions"] == 1

    def test_byte_bound_evicts(self):
        one_kb = np.zeros(128)  # 1024 bytes
        cache = SplitCache(max_entries=64, max_bytes=2 * one_kb.nbytes)
        cache.put("a", np.zeros(128))
        cache.put("b", np.zeros(128))
        cache.put("c", np.zeros(128))
        info = cache.info()
        assert info["entries"] == 2
        assert info["bytes"] <= cache.max_bytes
        assert cache.get("a") is None

    def test_oversized_value_not_stored_but_returned(self):
        cache = SplitCache(max_entries=4, max_bytes=64)
        big = np.zeros(1024)
        assert cache.put("big", big) is big
        assert cache.info()["entries"] == 0
        assert not big.flags.writeable  # frozen regardless

    def test_hits_are_shared_frozen_references(self):
        cache = SplitCache()
        value = {"hi": np.zeros(16), "lo": np.ones(16)}
        cache.put("k", value)
        hit = cache.get("k")
        assert hit is value
        assert not hit["hi"].flags.writeable

    def test_freeze_arrays_walks_containers(self):
        arrs = (np.zeros(4), [np.ones(4), {"x": np.full(4, 3.0)}])
        freeze_arrays(arrs)
        assert not arrs[0].flags.writeable
        assert not arrs[1][0].flags.writeable
        assert not arrs[1][1]["x"].flags.writeable

    def test_digest_separates_tags_and_collides_bytes(self):
        x = np.arange(16.0)
        assert operand_digest(x, "fp32") == operand_digest(x.copy(), "fp32")
        assert operand_digest(x, "fp32") != operand_digest(x, "fp32c")
        assert operand_digest(x, "fp32") != operand_digest(x + 1.0, "fp32")

    def test_probe_reports_this_process(self):
        info = split_cache_probe()
        assert set(info) >= {"enabled", "entries", "hits", "misses"}


class TestOperandSplitCaching:
    def test_repeat_build_hits_and_shares(self):
        rng = np.random.default_rng(1)
        a = _big(rng)
        first = OperandSplit.build(a, MXUMode.FP32)
        second = OperandSplit.build(a.copy(), MXUMode.FP32)
        assert second is first
        info = DEFAULT_SPLIT_CACHE.info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert not first.dense.flags.writeable

    def test_hit_bit_identical_to_cold(self):
        rng = np.random.default_rng(2)
        a = _big(rng)
        warm = OperandSplit.build(a, MXUMode.FP32)
        warm = OperandSplit.build(a, MXUMode.FP32)
        cold = OperandSplit.build(a, MXUMode.FP32, use_cache=False)
        assert warm.dense.tobytes() == cold.dense.tobytes()
        assert set(warm.parts) == set(cold.parts)
        for name in warm.parts:
            assert warm.parts[name].tobytes() == cold.parts[name].tobytes()

    def test_small_operands_bypass(self):
        rng = np.random.default_rng(3)
        tiny = quantize(rng.standard_normal((4, 4)), FP32)
        OperandSplit.build(tiny, MXUMode.FP32)
        assert DEFAULT_SPLIT_CACHE.info()["entries"] == 0

    def test_disabled_env_bypasses(self):
        rng = np.random.default_rng(4)
        os.environ[SPLIT_CACHE_ENV] = "0"
        OperandSplit.build(_big(rng), MXUMode.FP32)
        assert DEFAULT_SPLIT_CACHE.info()["entries"] == 0

    @pytest.mark.parametrize("lead", [1, 3])
    def test_identical_slice_stack_dedupes_to_one_split(self, lead):
        rng = np.random.default_rng(5)
        base = _big(rng)
        stack = np.stack([base] * lead)
        split = OperandSplit.build(stack, MXUMode.FP32)
        cold = OperandSplit.build(stack, MXUMode.FP32, use_cache=False)
        assert split.dense.shape == stack.shape
        assert split.dense.tobytes() == cold.dense.tobytes()
        for name in cold.parts:
            assert split.parts[name].tobytes() == cold.parts[name].tobytes()
        # One 2-D entry serves the whole stack.
        assert DEFAULT_SPLIT_CACHE.info()["entries"] == 1

    def test_distinct_slice_stack_not_deduped(self):
        rng = np.random.default_rng(6)
        stack = np.stack([_big(rng), _big(rng)])
        split = OperandSplit.build(stack, MXUMode.FP32)
        cold = OperandSplit.build(stack, MXUMode.FP32, use_cache=False)
        assert split.dense.tobytes() == cold.dense.tobytes()
        assert DEFAULT_SPLIT_CACHE.info()["entries"] == 0

    def test_modes_do_not_collide(self):
        rng = np.random.default_rng(7)
        a = _big(rng)
        fp32 = OperandSplit.build(a, MXUMode.FP32)
        bf16 = OperandSplit.build(a, MXUMode.BF16)
        assert fp32.mode is not bf16.mode
        assert DEFAULT_SPLIT_CACHE.info()["misses"] == 2


class TestEndToEndBitIdentity:
    """Cached vs uncached full GEMMs, value-level entry points."""

    def test_mxu_sgemm_warm_vs_cold(self):
        rng = np.random.default_rng(8)
        a = quantize(rng.standard_normal((48, 48)), FP32)
        b = quantize(rng.standard_normal((48, 48)), FP32)
        warm1 = mxu_sgemm(a, b)
        warm2 = mxu_sgemm(a, b)
        os.environ[SPLIT_CACHE_ENV] = "0"
        cold = mxu_sgemm(a, b)
        assert warm1.tobytes() == cold.tobytes()
        assert warm2.tobytes() == cold.tobytes()

    def test_mxu_cgemm_warm_vs_cold(self):
        rng = np.random.default_rng(9)
        a = quantize_complex(
            rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)), FP32
        )
        b = quantize_complex(
            rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)), FP32
        )
        warm1 = mxu_cgemm(a, b)
        warm2 = mxu_cgemm(a, b)
        os.environ[SPLIT_CACHE_ENV] = "0"
        cold = mxu_cgemm(a, b)
        assert warm1.tobytes() == cold.tobytes()
        assert warm2.tobytes() == cold.tobytes()

    def test_batched_repeated_a_warm_vs_cold(self):
        rng = np.random.default_rng(10)
        a = np.stack([rng.standard_normal((32, 32))] * 4)
        b = rng.standard_normal((4, 32, 8))
        # The cache inspected is this process's, so the batch runs here.
        warm = batched_mxu_sgemm(a, b, workers=1)
        assert DEFAULT_SPLIT_CACHE.info()["entries"] >= 1
        warm2 = batched_mxu_sgemm(a, b, workers=1)
        pooled = [batched_mxu_sgemm(a, b, workers=2) for _ in range(2)]
        os.environ[SPLIT_CACHE_ENV] = "0"
        cold = batched_mxu_sgemm(a, b, workers=1)
        pooled_cold = batched_mxu_sgemm(a, b, workers=2)
        for got in [warm, warm2, *pooled, pooled_cold]:
            assert got.tobytes() == cold.tobytes()

    def test_batched_cgemm_warm_vs_cold(self):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((3, 32, 32)) + 1j * rng.standard_normal(
            (3, 32, 32)
        )
        b = rng.standard_normal((3, 32, 8)) + 1j * rng.standard_normal((3, 32, 8))
        warm = batched_mxu_cgemm(stack, b)
        warm2 = batched_mxu_cgemm(stack, b)
        os.environ[SPLIT_CACHE_ENV] = "0"
        cold = batched_mxu_cgemm(stack, b)
        assert warm.tobytes() == cold.tobytes()
        assert warm2.tobytes() == cold.tobytes()
