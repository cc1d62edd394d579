"""The tiled driver's column fan-out: parity, the work floor, pool hygiene.

``TiledGEMM`` cuts N into one block per worker when every block carries
at least ``SHARD_MIN_MACS`` multiply-adds (batch axes included), for every
model that does not set ``requires_serial`` and never inside a pool worker
(``TiledGEMM._column_blocks``); ``sharded_bitlevel_gemm`` is that driver
on a ``BitLevelMXU``. Every test here enforces the one claim: the result is
bit-identical to the serial per-MMA chain at *every* worker count, block
width, engine, and transport, and the fan-out composes with the pool
without deadlocks or leaked shared-memory segments. Tests force fan-out
of small GEMMs by patching the floor.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import parallel
from repro.gemm import tiled
from repro.gemm.tiled import TiledGEMM, mxu_cgemm, mxu_sgemm
from repro.mxu import sharded_bitlevel_gemm
from repro.mxu.baseline import TensorCoreMXU
from repro.mxu.faults import FaultSpec, FaultStage, FaultyM3XU
from repro.mxu.m3xu import M3XU
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import BitLevelMXU, NonFiniteOperandError
from repro.parallel import parallel_map, pool_info
from repro.types.formats import FP32
from repro.types.quantize import quantize, quantize_complex
from tests.conftest import spy_blocks

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
    gemm = TiledGEMM(BitLevelMXU(engine=engine), mode)
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
    out = sharded_bitlevel_gemm(a, b, c, workers=2)
    spawned = parallel.pool_info()["spawns"] - before
    return os.getpid(), spawned, out


def _nested_sharded_vector(payload):
    """Run a fanned-out GEMM *inside* a pool worker; report what it moved."""
    a, b = payload
    out = sharded_bitlevel_gemm(a, b, engine="vector", workers=4)
    return out.tobytes(), parallel.in_worker(), parallel.arena_worker_info()["attaches"]


class _Subclass(BitLevelMXU):
    """A plain subclass (module-level, so it pickles into workers)."""


def _worker_attaches(_item):
    # The pause lets each idle worker take one probe.
    time.sleep(0.2)
    return parallel.in_worker(), parallel.arena_worker_info()["attaches"]


class TestResolveChunk:
    """A fanned-out run's column blocks: one per worker, and no more than
    can each carry SHARD_MIN_MACS multiply-adds."""

    def test_default(self, monkeypatch):
        calls = spy_blocks(monkeypatch)
        rng = np.random.default_rng(3)
        # The bitlevel workload's shape (2**20 multiply-adds) stays in
        # process at 2 workers: no pool, nothing published.
        a, b, _ = _real(rng, 64, 64, 256)
        before = pool_info()
        sharded_bitlevel_gemm(a, b, workers=2)
        assert calls == []
        assert pool_info()["spawns"] == before["spawns"]
        assert pool_info()["arena"]["publishes"] == before["arena"]["publishes"]
        # Two floors of work make one block per worker; one column less
        # stays in process (a single MMA over all of K keeps it cheap).
        assert 256 * 256 * 512 == 2 * tiled.SHARD_MIN_MACS
        a, b, _ = _real(rng, 256, 256, 512)
        want = TiledGEMM(M3XU(), MXUMode.FP32, k_chunk=256, workers=1).run(a, b)
        below = TiledGEMM(M3XU(), MXUMode.FP32, k_chunk=256, workers=2).run(a, b[:, :-1])
        assert calls == []
        assert below.tobytes() == want[:, :-1].tobytes()
        got = TiledGEMM(M3XU(), MXUMode.FP32, k_chunk=256, workers=2).run(a, b)
        assert calls == [[256, 256]]
        assert got.tobytes() == want.tobytes()
        # A stack is no different: 16 x 48^3 (1.8e6 multiply-adds) stays
        # in process at any worker count.
        a = quantize(rng.standard_normal((16, 48, 48)), FP32)
        b = quantize(rng.standard_normal((16, 48, 48)), FP32)
        mxu_sgemm(a, b, workers=4)
        assert calls == [[256, 256]]

    def test_fan_out_rule(self, monkeypatch):
        # The one rule: a block per worker, capped by the floor (batch
        # axes count, an FP32C multiply-add counts four); fewer than two
        # blocks is the in-process call.
        def blocks(workers, n=7, batch=(), unit=None, mode=MXUMode.FP32):
            gemm = TiledGEMM(unit or M3XU(), mode, workers=workers)
            return gemm._column_blocks(np.zeros((*batch, 1, 1)), np.zeros((1, n)))

        monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 1)
        assert blocks(3) == [(0, 3), (3, 5), (5, 7)]
        assert blocks(3, n=1) == []
        assert blocks(1) == []
        monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 3)  # two floors of work
        assert blocks(3) == [(0, 4), (4, 7)]
        monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 7)  # one floor
        assert blocks(3) == []
        assert blocks(3, batch=(2,)) == [(0, 4), (4, 7)]
        assert blocks(3, mode=MXUMode.FP32C) == [(0, 3), (3, 5), (5, 7)]
        monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 1)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert blocks(None, n=4) == [(0, 2), (2, 4)]
        spec = FaultSpec(stage=FaultStage.ACCUMULATOR, call_index=1, seed=0)
        assert blocks(3, unit=FaultyM3XU(spec)) == []
        monkeypatch.setattr(tiled, "in_worker", lambda: True)
        assert blocks(3) == []

    def test_constant_read_at_call_time(self, rng, monkeypatch):
        calls = spy_blocks(monkeypatch)
        a, b, c = _real(rng, 2, 3, 7)  # 42 multiply-adds
        monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 3)
        sharded_bitlevel_gemm(a, b, c, workers=3)
        monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 21)
        sharded_bitlevel_gemm(a, b, c, workers=3)
        # An FP32C multiply-add counts as four.
        ac, bc, cc = _cplx(rng, 2, 3, 7)
        sharded_bitlevel_gemm(ac, bc, cc, MXUMode.FP32C, workers=3)
        assert calls == [[3, 2, 2], [4, 3], [3, 2, 2]]


class TestShardedParity:
    """Bit-identity to the serial per-MMA chain at every worker count."""

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_fp32_every_worker_count(self, rng, workers, no_floor):
        a, b, c = _real(rng, 9, 21, 13)
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        got = sharded_bitlevel_gemm(a, b, c, workers=workers)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_fp32c_parity(self, rng, workers, no_floor):
        a, b, c = _cplx(rng, 6, 9, 7)
        want = _per_mma_chain(a, b, c, MXUMode.FP32C)
        got = sharded_bitlevel_gemm(a, b, c, MXUMode.FP32C, workers=workers)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunk_size_never_changes_bits(self, rng, chunk, monkeypatch):
        # A floor of `chunk` columns' work: 3, 2 or 1 block(s) at 3 workers.
        calls = spy_blocks(monkeypatch)
        a, b, c = _real(rng, 5, 13, 11)
        want = sharded_bitlevel_gemm(a, b, c, workers=1)
        monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 5 * 13 * chunk)
        got = sharded_bitlevel_gemm(a, b, c, workers=3)
        assert got.tobytes() == want.tobytes()
        assert [len(widths) for widths in calls] == {1: [3], 5: [2], 64: []}[chunk]

    def test_scalar_engine_shards_too(self, rng, no_floor):
        a, b, c = _real(rng, 3, 8, 5)
        want = _per_mma_chain(a, b, c, MXUMode.FP32, engine="scalar")
        got = sharded_bitlevel_gemm(a, b, c, engine="scalar", workers=2)
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

    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C], ids=["fp32", "fp32c"])
    @pytest.mark.parametrize("model", ["m3xu", "vector", "scalar"])
    def test_every_model_every_worker_count(self, rng, model, mode, no_floor):
        make = _real if mode is MXUMode.FP32 else _cplx
        a, b, c = make(rng, 6, 9, 7)
        unit = M3XU() if model == "m3xu" else BitLevelMXU(engine=model)
        want = TiledGEMM(unit, mode, abft=False, workers=1).run(a, b, c)
        for abft in (False, True):
            for workers in (1, 2, 3, 0):
                gemm = TiledGEMM(unit, mode, abft=abft, workers=workers)
                assert gemm.run(a, b, c).tobytes() == want.tobytes(), (abft, workers)

    @pytest.mark.parametrize("mode", [MXUMode.FP16, MXUMode.BF16, MXUMode.TF32])
    def test_tensorcore_every_worker_count(self, rng, mode, no_floor):
        a, b, c = _real(rng, 6, 40, 7)
        want = TiledGEMM(TensorCoreMXU(), mode, abft=False, workers=1).run(a, b, c)
        for workers in (2, 3, 0):
            gemm = TiledGEMM(TensorCoreMXU(), mode, abft=False, workers=workers)
            assert gemm.run(a, b, c).tobytes() == want.tobytes(), workers


class TestTiledRouting:
    """TiledGEMM / mxu_sgemm / mxu_cgemm fan out; serial units do not."""

    def test_plain_bitlevel_takes_sharded_path(self, rng, monkeypatch, no_floor):
        calls = spy_blocks(monkeypatch)
        a, b, c = _real(rng, 5, 9, 6)
        gemm = TiledGEMM(BitLevelMXU(), MXUMode.FP32, workers=2)
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        assert gemm.run(a, b, c).tobytes() == want.tobytes()
        assert calls == [[3, 3]]

    def test_wrapped_mxu_keeps_per_mma_path(self, rng, monkeypatch, no_floor):
        # A unit that sets requires_serial (the fault wrapper counts MMAs
        # in one process) must never leave the process.
        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a requires_serial unit must not fan out")

        monkeypatch.setattr(tiled, "parallel_map", forbidden)

        class Hooked(BitLevelMXU):
            requires_serial = True

        a, b, c = _real(rng, 4, 8, 4)
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        got = TiledGEMM(Hooked(), MXUMode.FP32, workers=2).run(a, b, c)
        assert got.tobytes() == want.tobytes()
        spec = FaultSpec(stage=FaultStage.ACCUMULATOR, call_index=1, seed=0)
        faulty = FaultyM3XU(spec, unit=BitLevelMXU())
        TiledGEMM(faulty, MXUMode.FP32, abft=False, workers=2).run(a, b, c)
        assert faulty.calls == 2 and faulty.fired

    def test_plain_subclass_fans_out_like_its_base(self, rng, monkeypatch, no_floor):
        calls = spy_blocks(monkeypatch)
        a, b, c = _real(rng, 4, 8, 4)
        got = TiledGEMM(_Subclass(), MXUMode.FP32, workers=2).run(a, b, c)
        assert got.tobytes() == _per_mma_chain(a, b, c, MXUMode.FP32).tobytes()
        assert calls == [[2, 2]]

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_mxu_sgemm_workers_parity(self, rng, workers, no_floor):
        a, b, c = _real(rng, 7, 12, 9)
        want = mxu_sgemm(a, b, c, mxu=BitLevelMXU(), workers=1)
        got = mxu_sgemm(a, b, c, mxu=BitLevelMXU(), workers=workers)
        assert got.tobytes() == want.tobytes()

    def test_mxu_cgemm_workers_parity(self, rng, no_floor):
        a, b, c = _cplx(rng, 5, 8, 6)
        want = mxu_cgemm(a, b, c, mxu=BitLevelMXU(), workers=1)
        got = mxu_cgemm(a, b, c, mxu=BitLevelMXU(), workers=3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_abft_guarded_parity(self, rng, workers, no_floor):
        # The guard's tile recomputation runs through the same driver; the
        # guarded result and report must not depend on the worker count.
        a, b, c = _real(rng, 8, 16, 8)
        serial = TiledGEMM(BitLevelMXU(), MXUMode.FP32, abft=True, workers=1)
        want = serial.run(a, b, c)
        assert serial.abft_report is not None
        gemm = TiledGEMM(BitLevelMXU(), MXUMode.FP32, abft=True, workers=workers)
        got = gemm.run(a, b, c)
        assert got.tobytes() == want.tobytes()
        assert gemm.abft_report is not None
        assert gemm.abft_report.checks == serial.abft_report.checks
        assert gemm.abft_report.detected == serial.abft_report.detected


class TestPoolHygiene:
    """Nested calls collapse to serial; shm segments never leak."""

    def test_nested_sharded_call_runs_serial_in_worker(self, rng, no_floor):
        a, b, c = _real(rng, 4, 8, 6)
        want = sharded_bitlevel_gemm(a, b, c, workers=1)
        results = parallel_map(_nested_sharded, [(a, b, c)] * 2, workers=2)
        for pid, spawned_in_worker, out in results:
            assert pid != os.getpid()
            assert spawned_in_worker == 0  # no pool forked inside the pool
            assert out.tobytes() == want.tobytes()

    def test_shm_transport_parity_and_release(self, rng, monkeypatch, no_floor):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shm filesystem not visible")
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)
        a, b, c = _real(rng, 6, 12, 8)
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        before = set(os.listdir("/dev/shm"))
        publishes = pool_info()["arena"]["publishes"]
        got = sharded_bitlevel_gemm(a, b, c, workers=2)
        assert got.tobytes() == want.tobytes()
        assert pool_info()["arena"]["publishes"] > publishes
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_shm_released_when_a_shard_fails(self, rng, monkeypatch, no_floor):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shm filesystem not visible")
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)
        a, b, c = _real(rng, 6, 12, 8)
        a[2, 3] = np.inf  # rejected by the finite-operand contract
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(NonFiniteOperandError):
            sharded_bitlevel_gemm(a, b, c, workers=2)
        assert set(os.listdir("/dev/shm")) - before == set()
        # pool is not poisoned: the next sharded call succeeds
        a[2, 3] = 1.0
        want = _per_mma_chain(a, b, c, MXUMode.FP32)
        got = sharded_bitlevel_gemm(a, b, c, workers=2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["tiled", "batched"])
    def test_call_inside_a_worker_is_one_chain(self, rng, monkeypatch, no_floor, batch):
        # In a pool worker the blocks could only run one after another, so
        # a GEMM or a stack makes the one in-process chain call instead.
        a = quantize(rng.standard_normal((*batch, 4, 8)), FP32)
        b = quantize(rng.standard_normal((*batch, 8, 6)), FP32)
        want = mxu_sgemm(a, b, workers=1, abft=False)

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a call inside a pool worker must not map")

        chains = []
        real_chain = M3XU.chain

        def counting_chain(self, *args, **kwargs):
            chains.append(args[0].shape)
            return real_chain(self, *args, **kwargs)

        monkeypatch.setattr(tiled, "in_worker", lambda: True)
        monkeypatch.setattr(tiled, "parallel_map", forbidden)
        monkeypatch.setattr(M3XU, "chain", counting_chain)
        assert mxu_sgemm(a, b, workers=2, abft=False).tobytes() == want.tobytes()
        assert chains == [a.shape]

    def test_serial_sharding_spawns_no_pool(self, rng, no_floor):
        a, b, c = _real(rng, 4, 8, 4)
        before = pool_info()["spawns"]
        sharded_bitlevel_gemm(a, b, c, workers=1)
        assert pool_info()["spawns"] == before


class TestShardedIntegration:
    """What the transport moves for a fanned-out call."""

    def _operands(self, n=48):
        rng = np.random.default_rng(40)
        return (
            quantize(rng.standard_normal((n, n)), FP32),
            quantize(rng.standard_normal((n, n)), FP32),
        )

    def test_parallel_dispatch_publishes_and_workers_attach(self, monkeypatch, no_floor):
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)
        a, b = self._operands()
        blocks = 2
        before = pool_info()["arena"]["publishes"]
        out1 = sharded_bitlevel_gemm(a, b, engine="vector", workers=blocks)
        out2 = sharded_bitlevel_gemm(a, b, engine="vector", workers=blocks)
        assert out1.tobytes() == out2.tobytes()
        # Per call: dense A once, however many column blocks carry it,
        # plus each block's own B and C.
        assert pool_info()["arena"]["publishes"] == before + 2 * (1 + 2 * blocks)
        probes = parallel_map(_worker_attaches, [None, None], workers=2, timeout=60.0)
        assert all(in_wkr for in_wkr, _ in probes)
        assert any(attaches >= 1 for _, attaches in probes)

    def test_nested_in_worker_collapses_serial_without_transport(self, no_floor):
        a, b = self._operands(n=32)
        serial = sharded_bitlevel_gemm(a, b, engine="vector", workers=0)
        publishes_before = pool_info()["arena"]["publishes"]
        (got, in_wkr, attaches), = parallel_map(
            _nested_sharded_vector, [(a, b)], workers=2, timeout=120.0
        )
        assert got == serial.tobytes()
        assert in_wkr is True
        # The nested call ran serially: nothing went through shared
        # memory for it, in the worker or in this process.
        assert attaches == 0
        assert pool_info()["arena"]["publishes"] == publishes_before


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
