"""The sharded bit-level GEMM driver: parity, routing, pool hygiene.

Every test here enforces the module's one claim: the column-sharded
driver is bit-identical to the serial per-MMA chain at *every* worker
count, chunk size, engine, and transport, and it composes with the pool
without deadlocks or leaked shared-memory segments.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import parallel
from repro.gemm.tiled import TiledGEMM, mxu_cgemm, mxu_sgemm
from repro.mxu.modes import MXUMode
from repro.mxu.parallel_bitlevel import (
    DEFAULT_BITLEVEL_CHUNK,
    sharded_bitlevel_gemm,
)
from repro.mxu.vectorized import BitLevelMXU, NonFiniteOperandError
from repro.parallel import parallel_map, pool_info
from repro.types.formats import FP32
from repro.types.quantize import quantize, quantize_complex

WORKER_GRID = [0, 1, 2, 3]


@pytest.fixture(autouse=True)
def _fresh_pool():
    parallel.shutdown()
    yield
    parallel.shutdown()


def _real(rng, m, k, n):
    return (
        quantize(rng.standard_normal((m, k)), FP32),
        quantize(rng.standard_normal((k, n)), FP32),
        quantize(rng.standard_normal((m, n)), FP32),
    )


def _cplx(rng, m, k, n):
    mk = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    kn = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    mn = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return (
        quantize_complex(mk, FP32),
        quantize_complex(kn, FP32),
        quantize_complex(mn, FP32),
    )


def _per_mma_chain(a, b, c, mode, engine="scalar"):
    """The serial reference: one BitLevelMXU.mma per K-chunk, on the
    scalar oracle unless *engine* says otherwise."""
    gemm = TiledGEMM(BitLevelMXU(engine=engine), mode, fused=False)
    mxu = gemm.mxu
    step = gemm.k_chunk
    acc = np.broadcast_to(np.asarray(c), (a.shape[0], b.shape[1]))
    for k0 in range(0, a.shape[1], int(step)):
        acc = mxu.mma(a[:, k0 : k0 + step], b[k0 : k0 + step, :], acc, mode)
    return np.asarray(acc)


# ---- module-level (picklable) helpers for nested-pool tests ----------


def _nested_sharded(payload):
    a, b, c = payload
    before = parallel.pool_info()["spawns"]
    out = sharded_bitlevel_gemm(a, b, c, workers=2, chunk=2)
    spawned = parallel.pool_info()["spawns"] - before
    return os.getpid(), spawned, out


class TestResolveChunk:
    """A parallel run's column block width: ``chunk=``, else
    DEFAULT_BITLEVEL_CHUNK."""

    @staticmethod
    def _block_widths(rng, monkeypatch, **kwargs):
        import repro.mxu.parallel_bitlevel as pb

        widths = []
        real = pb.parallel_map

        def spy(fn, tasks, **kw):
            widths.extend(task[1].shape[1] for task in tasks)
            return real(fn, tasks, **kw)

        monkeypatch.setattr(pb, "parallel_map", spy)
        a, b, c = _real(rng, 2, 3, DEFAULT_BITLEVEL_CHUNK + 5)
        sharded_bitlevel_gemm(a, b, c, workers=2, **kwargs)
        return widths

    def test_default(self, rng, monkeypatch):
        assert self._block_widths(rng, monkeypatch) == [DEFAULT_BITLEVEL_CHUNK, 5]

    def test_below_one_rejected(self, rng):
        a, b, c = _real(rng, 2, 3, 4)
        with pytest.raises(ValueError, match="chunk"):
            sharded_bitlevel_gemm(a, b, c, workers=2, chunk=0)


class TestShardedParity:
    """Bit-identity to the serial per-MMA chain at every worker count."""

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_fp32_every_worker_count(self, rng, workers):
        a, b, c = _real(rng, 9, 21, 13)
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        got = sharded_bitlevel_gemm(a, b, c, workers=workers, chunk=4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_fp32c_parity(self, rng, workers):
        a, b, c = _cplx(rng, 6, 9, 7)
        want = _per_mma_chain(a, b, c, MXUMode.FP32C)
        got = sharded_bitlevel_gemm(
            a, b, c, MXUMode.FP32C, workers=workers, chunk=3
        )
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunk_size_never_changes_bits(self, rng, chunk):
        a, b, c = _real(rng, 5, 13, 11)
        want = sharded_bitlevel_gemm(a, b, c, workers=1)
        got = sharded_bitlevel_gemm(a, b, c, workers=2, chunk=chunk)
        assert got.tobytes() == want.tobytes()

    def test_scalar_engine_shards_too(self, rng):
        a, b, c = _real(rng, 3, 8, 5)
        want = _per_mma_chain(a, b, c, MXUMode.FP32, engine="scalar")
        got = sharded_bitlevel_gemm(a, b, c, engine="scalar", workers=2, chunk=2)
        assert got.tobytes() == want.tobytes()

    def test_empty_k_and_empty_n(self, rng):
        c = quantize(rng.standard_normal((4, 3)), FP32)
        got = sharded_bitlevel_gemm(np.empty((4, 0)), np.empty((0, 3)), c, workers=2)
        assert got.tobytes() == np.asarray(c, dtype=np.float64).tobytes()
        empty = sharded_bitlevel_gemm(
            np.empty((4, 5)), np.empty((5, 0)), 0.0, workers=2
        )
        assert empty.shape == (4, 0)

    def test_operand_validation(self, rng):
        a, b, _ = _real(rng, 3, 4, 3)
        with pytest.raises(ValueError, match="fp32"):
            sharded_bitlevel_gemm(a, b, 0.0, MXUMode.FP16)
        with pytest.raises(ValueError, match="K mismatch"):
            sharded_bitlevel_gemm(a, b[:-1], 0.0)
        with pytest.raises(ValueError, match="2-D"):
            sharded_bitlevel_gemm(a[0], b, 0.0)
        with pytest.raises(ValueError, match="k_chunk"):
            sharded_bitlevel_gemm(a, b, 0.0, k_chunk=0)


class TestTiledRouting:
    """TiledGEMM / mxu_sgemm / mxu_cgemm ride the sharded driver."""

    def test_plain_bitlevel_takes_sharded_path(self, rng, monkeypatch):
        import repro.gemm.tiled as tiled

        calls = []
        real = tiled.sharded_bitlevel_gemm

        def spy(*args, **kwargs):
            calls.append(kwargs.get("workers"))
            return real(*args, **kwargs)

        monkeypatch.setattr(tiled, "sharded_bitlevel_gemm", spy)
        a, b, c = _real(rng, 5, 9, 6)
        gemm = TiledGEMM(BitLevelMXU(), MXUMode.FP32, fused=False, workers=2)
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        assert gemm.run(a, b, c).tobytes() == want.tobytes()
        assert calls == [2]

    def test_wrapped_mxu_keeps_per_mma_path(self, rng, monkeypatch):
        # Subclasses / fault-injecting wrappers must see every MMA, so
        # they may never route through the sharded driver.
        import repro.gemm.tiled as tiled

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("wrapped MXU must not take the sharded driver")

        monkeypatch.setattr(tiled, "sharded_bitlevel_gemm", forbidden)

        class Hooked(BitLevelMXU):
            pass

        a, b, c = _real(rng, 4, 8, 4)
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        got = TiledGEMM(Hooked(), MXUMode.FP32, fused=False).run(a, b, c)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_mxu_sgemm_workers_parity(self, rng, workers):
        a, b, c = _real(rng, 7, 12, 9)
        want = mxu_sgemm(a, b, c, mxu=BitLevelMXU(), fused=False)
        got = mxu_sgemm(a, b, c, mxu=BitLevelMXU(), fused=False, workers=workers)
        assert got.tobytes() == want.tobytes()

    def test_mxu_cgemm_workers_parity(self, rng):
        a, b, c = _cplx(rng, 5, 8, 6)
        want = mxu_cgemm(a, b, c, mxu=BitLevelMXU(), fused=False)
        got = mxu_cgemm(a, b, c, mxu=BitLevelMXU(), fused=False, workers=3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_abft_guarded_parity(self, rng, workers):
        # The guard's tile recomputation inherits the sharded path; the
        # guarded result and report must not depend on the worker count.
        a, b, c = _real(rng, 8, 16, 8)
        serial = TiledGEMM(BitLevelMXU(), MXUMode.FP32, fused=False, abft=True)
        want = serial.run(a, b, c)
        assert serial.abft_report is not None
        gemm = TiledGEMM(
            BitLevelMXU(), MXUMode.FP32, fused=False, abft=True, workers=workers
        )
        got = gemm.run(a, b, c)
        assert got.tobytes() == want.tobytes()
        assert gemm.abft_report is not None
        assert gemm.abft_report.checks == serial.abft_report.checks
        assert gemm.abft_report.detected == serial.abft_report.detected


class TestPoolHygiene:
    """Nested calls collapse to serial; shm segments never leak."""

    def test_nested_sharded_call_runs_serial_in_worker(self, rng):
        a, b, c = _real(rng, 4, 8, 6)
        want = sharded_bitlevel_gemm(a, b, c, workers=1)
        results = parallel_map(
            _nested_sharded, [(a, b, c)] * 2, workers=2, chunk_size=1
        )
        for pid, spawned_in_worker, out in results:
            assert pid != os.getpid()
            assert spawned_in_worker == 0  # no pool forked inside the pool
            assert out.tobytes() == want.tobytes()

    def test_shm_transport_parity_and_release(self, rng, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shm filesystem not visible")
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)
        a, b, c = _real(rng, 6, 12, 8)
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        before = set(os.listdir("/dev/shm"))
        got = sharded_bitlevel_gemm(a, b, c, workers=2, chunk=2)
        assert got.tobytes() == want.tobytes()
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_shm_released_when_a_shard_fails(self, rng, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shm filesystem not visible")
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)
        a, b, c = _real(rng, 6, 12, 8)
        a[2, 3] = np.inf  # rejected by the finite-operand contract
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(NonFiniteOperandError):
            sharded_bitlevel_gemm(a, b, c, workers=2, chunk=2)
        assert set(os.listdir("/dev/shm")) - before == set()
        # pool is not poisoned: the next sharded call succeeds
        a[2, 3] = 1.0
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        got = sharded_bitlevel_gemm(a, b, c, workers=2, chunk=2)
        assert got.tobytes() == want.tobytes()

    def test_serial_sharding_spawns_no_pool(self, rng):
        a, b, c = _real(rng, 4, 8, 4)
        before = pool_info()["spawns"]
        sharded_bitlevel_gemm(a, b, c, workers=1)
        assert pool_info()["spawns"] == before


class TestCampaignWorkerParity:
    @pytest.mark.parametrize("workers", ["0", "1", "2", "3"])
    def test_bitlevel_campaign_records_worker_invariant(self, workers, monkeypatch):
        from repro.resilience.campaign import (
            BITLEVEL_STAGES,
            CampaignConfig,
            run_campaign,
        )

        cfg = CampaignConfig(
            trials=6, seed=77, m=8, n=6, k=8,
            stages=BITLEVEL_STAGES, engine="bitlevel",
        )
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        want = run_campaign(cfg).records
        monkeypatch.setenv("REPRO_WORKERS", workers)
        assert run_campaign(cfg).records == want
