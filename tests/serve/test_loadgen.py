"""Load-generator tests: fault campaign with zero undetected SDCs,
overload ramps shedding structurally, and report shape."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import (
    GemmServer,
    LoadgenConfig,
    ServeConfig,
    run_loadgen,
    run_loadgen_async,
)
from repro.serve.client import _check_sdc, _make_request, _sdc_tolerance
from repro.serve.server import decode_array, encode_array


class TestRequestGeneration:
    def test_deterministic_given_seed(self):
        cfg = LoadgenConfig(seed=3, size=8, fault_rate=0.5)
        a = [_make_request(np.random.default_rng(3), cfg, i)[0] for i in range(6)]
        b = [_make_request(np.random.default_rng(3), cfg, i)[0] for i in range(6)]
        assert a == b

    def test_fft_requests_use_power_of_two_lengths(self):
        cfg = LoadgenConfig(seed=0, size=12, mix=(0.0, 0.0, 1.0, 0.0))
        rng = np.random.default_rng(0)
        request, ref = _make_request(rng, cfg, 0)
        n = len(ref)
        assert n >= 12 and (n & (n - 1)) == 0

    def test_validates_config(self):
        with pytest.raises(ValueError):
            LoadgenConfig(mode="sideways")
        with pytest.raises(ValueError):
            LoadgenConfig(concurrency=0)


class TestSdcDetector:
    def test_accepts_roundoff_rejects_corruption(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        ref = a.astype(np.float32).astype(np.float64) @ (
            b.astype(np.float32).astype(np.float64)
        )
        request = {"op": "gemm"}
        clean = {"status": "OK", "result": encode_array(ref)}
        assert not _check_sdc(request, clean, ref)
        corrupt_val = ref.copy()
        corrupt_val[3, 3] += 1.0  # far beyond any roundoff
        corrupt = {"status": "OK", "result": encode_array(corrupt_val)}
        assert _check_sdc(request, corrupt, ref)

    def test_missing_or_misshapen_result_counts_as_corrupt(self, rng):
        ref = rng.standard_normal((4, 4))
        assert _check_sdc({"op": "gemm"}, {"status": "OK"}, ref)
        wrong = {"status": "OK", "result": encode_array(ref[:2])}
        assert _check_sdc({"op": "gemm"}, wrong, ref)

    def test_tolerance_scales_with_k_and_magnitude(self):
        small = _sdc_tolerance("gemm", 8, np.ones((2, 2)))
        large = _sdc_tolerance("gemm", 64, np.full((2, 2), 100.0))
        assert large > small


class TestLoadgenRuns:
    def test_fault_campaign_completes_with_zero_undetected_sdc(self):
        """The acceptance-criteria run, scaled for CI: injected worker
        kills, stalls and poisoned tiles; every OK result checked against
        the float64 reference; zero undetected SDCs; bounded latency."""
        report = run_loadgen(LoadgenConfig(
            duration_s=3.0, mode="closed", concurrency=3, size=10,
            fault_rate=0.2, seed=7, deadline_ms=2000.0,
        ))
        assert report["sent"] > 0
        assert report["sdc_count"] == 0
        assert report["outcomes"].get("OK", 0) > 0
        # Faults surface as structured errors or recovered OKs, never
        # hangs: everything sent is accounted for and bounded.
        accounted = sum(report["outcomes"].values())
        assert accounted == report["sent"]
        assert report["p95_latency_ms"] < 60_000.0
        assert report["elapsed_s"] < 60.0

    def test_overload_ramp_sheds_structurally(self):
        """Open-loop rate far above capacity: the server must answer
        everything (reject or serve), with structured rejections and no
        unbounded queue growth. Capacity is the server's 50 rps token
        bucket, not the host's speed, so the ramp sheds on any host."""

        async def ramp():
            server = GemmServer(ServeConfig(port=0, rate=50.0))
            await server.start()
            try:
                return await run_loadgen_async(LoadgenConfig(
                    duration_s=2.0, mode="open", rate=400.0, concurrency=4,
                    size=12, seed=11, deadline_ms=1500.0,
                ), server=server)
            finally:
                await server.stop()

        report = asyncio.run(ramp())
        assert report["sent"] > 100
        rejected = report["outcomes"].get("REJECTED", 0)
        assert rejected > 0
        assert set(report["reasons"]) <= {
            "queue_full", "overload", "deadline", "worker_lost",
            "execution", "circuit_open",
        }
        assert report["sdc_count"] == 0
        # Bounded: rejections are fast and the run ends promptly.
        assert report["elapsed_s"] < 60.0
