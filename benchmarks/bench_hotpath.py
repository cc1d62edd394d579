"""Hot-path speed of the emulator's execution engine.

Not a paper figure: this regression-guards the emulator's own execution
engine and writes the measurements to ``BENCH_hotpath.json`` at the repo
root for machine consumption.

The value-level rows (``mxu_sgemm``, ``mxu_cgemm``, ``batched_sgemm``,
``batched_cgemm``) time the production path (split plan + fused/BLAS
accumulation) and assert it bit-identical to a per-K-chunk loop of
``M3XU.mma`` calls on the same operands. Their ``legacy_s`` is the
committed time of the pre-fusion pipeline, which no longer exists: a
frozen historical value (full-size shapes, rows marked ``"historical":
true``), so ``speedup`` compares today's ``fast_s`` against it and has
no floor.

Every live timing is best-of-3 ``time.perf_counter`` wall time, so the
JSON deltas are comparable across runs and PRs instead of being hostage
to one noisy measurement.

``REPRO_BENCH_SMOKE=1`` shrinks every shape so the suite doubles as a CI
smoke test (bit-identity still asserted; speedup thresholds waived at toy
sizes).

The ``bitlevel_vector`` cases time the vectorized bit-level datapath
(:mod:`repro.mxu.vectorized`) against the scalar ``BitAccumulator``
oracle. The scalar engine is far too slow for the full shapes, so it is
timed on a slice (columns of the GEMM / a prefix of the campaign trials),
asserted bit-identical there, and extrapolated linearly — the per-element
work is constant, and the ``extrapolated`` flag in the JSON says so.
"""

from __future__ import annotations

import json
import os
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro import parallel
from repro.gemm.batched import batched_mxu_cgemm, batched_mxu_sgemm
from repro.gemm.tiled import TiledGEMM
from repro.mxu.m3xu import M3XU
from repro.mxu.modes import MXUMode
from repro.mxu.parallel_bitlevel import DEFAULT_BITLEVEL_CHUNK, sharded_bitlevel_gemm
from repro.mxu.split_cache import DEFAULT_SPLIT_CACHE, SPLIT_CACHE_ENV
from repro.mxu.vectorized import BitLevelMXU
from repro.parallel import resolve_workers
from repro.resilience.campaign import BITLEVEL_STAGES, CampaignConfig, run_campaign
from repro.types.formats import FP32
from repro.types.quantize import quantize, quantize_complex

from conftest import bench_print

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: (single FP32 N, single FP32C N, batched FP32 (B, N), batched FP32C (B, N))
if SMOKE:
    SGEMM_N, CGEMM_N = 64, 48
    BATCH_S, BATCH_C = (8, 24), (6, 16)
    BITLEVEL_N, BITLEVEL_COLS = 24, 2
    CAMPAIGN_TRIALS, CAMPAIGN_SLICE, CAMPAIGN_DIM = 5, 5, 16
    SPLITC_B, SPLITC_N, SPLITC_P = 6, 48, 4
else:
    SGEMM_N, CGEMM_N = 512, 256
    BATCH_S, BATCH_C = (32, 64), (24, 48)
    BITLEVEL_N, BITLEVEL_COLS = 256, 2
    CAMPAIGN_TRIALS, CAMPAIGN_SLICE, CAMPAIGN_DIM = 200, 20, 32
    SPLITC_B, SPLITC_N, SPLITC_P = 16, 512, 8

#: Committed best-of-3 times of the deleted pre-fusion pipeline
#: (materialised lane products per MMA, no split plan) at the full
#: shapes above.
HISTORICAL_LEGACY_S = {
    "mxu_sgemm": 24.327250975002244,
    "mxu_cgemm": 8.781045513998833,
    "batched_sgemm": 1.6012921490000736,
    "batched_cgemm": 1.236347535999812,
}

_RESULTS: list[dict] = []
_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


@pytest.fixture(scope="module", autouse=True)
def _write_json():
    yield
    _JSON_PATH.write_text(json.dumps({"smoke": SMOKE, "results": _RESULTS}, indent=2))
    bench_print(f"\nhot-path speedups written to {_JSON_PATH.name}:")
    for r in _RESULTS:
        bench_print(
            f"  {r['name']:<16} {r['shape']:<16} legacy {r['legacy_s']:.3f}s"
            f" / fast {r['fast_s']:.3f}s = {r['speedup']:.1f}x"
        )


def _timed(fn, repeats: int = 3) -> tuple[float, np.ndarray]:
    """Min-of-N wall time and the (last) result."""
    best, out = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _record(name: str, shape: str, mode: str, legacy_s: float, fast_s: float,
            min_speedup: float | None, *, engine: str = "m3xu",
            workers: int | None = None, chunk: int | None = None,
            **annotations: object) -> None:
    """Append one row, then check its floor. *annotations* join the row
    first, so a run that misses a floor still writes complete rows."""
    speedup = legacy_s / fast_s
    _RESULTS.append({
        "name": name, "shape": shape, "mode": mode,
        "engine": engine,
        "workers": resolve_workers(workers),
        "chunk": chunk,
        "legacy_s": legacy_s, "fast_s": fast_s, "speedup": speedup,
        **annotations,
    })
    if not SMOKE and min_speedup is not None:
        assert speedup >= min_speedup, (
            f"{name}: fast path only {speedup:.2f}x over legacy "
            f"(required >= {min_speedup}x)"
        )


def _record_historical(name: str, shape: str, mode: str, fast_s: float) -> None:
    """A value-level row: live ``fast_s`` against the frozen ``legacy_s``."""
    _record(name, shape, mode, HISTORICAL_LEGACY_S[name], fast_s, None,
            historical=True)


def _per_chunk_mma(a: np.ndarray, b: np.ndarray, mode: MXUMode) -> np.ndarray:
    """The value-level reference: one ``M3XU.mma`` per instruction-sized
    K-chunk (operands may be batched), the accumulator carried between
    chunks exactly as the tiled driver carries it."""
    unit = M3XU()
    step = unit.config.tile(mode).k
    out_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
        a.shape[-2], b.shape[-1])
    acc = np.zeros(
        out_shape, dtype=np.complex128 if mode is MXUMode.FP32C else np.float64)
    for k0 in range(0, a.shape[-1], step):
        acc = unit.mma(a[..., k0 : k0 + step], b[..., k0 : k0 + step, :], acc, mode)
    return acc


#: Scalar bit-level oracle timings, keyed by (n, cols) — the oracle slice
#: is expensive, and both bit-level GEMM rows must compare against the
#: *same* measurement so their speedups are mutually consistent.
_SCALAR_SLICE: dict[tuple[int, int], tuple[float, np.ndarray]] = {}


def _scalar_slice(a: np.ndarray, b: np.ndarray, cols: int) -> tuple[float, np.ndarray]:
    key = (a.shape[0], cols)
    if key not in _SCALAR_SLICE:
        driver = TiledGEMM(BitLevelMXU(engine="scalar"), MXUMode.FP32)
        _SCALAR_SLICE[key] = _timed(lambda: driver.run(a, b[:, :cols]), repeats=1)
    return _SCALAR_SLICE[key]


def test_sgemm_single(benchmark):
    n = SGEMM_N
    rng = np.random.default_rng(11)
    a = quantize(rng.standard_normal((n, n)), FP32)
    b = quantize(rng.standard_normal((n, n)), FP32)
    fast_driver = TiledGEMM(M3XU(), MXUMode.FP32)

    got = benchmark.pedantic(fast_driver.run, args=(a, b), rounds=3, iterations=1)
    fast_s, _ = _timed(lambda: fast_driver.run(a, b))

    assert got.tobytes() == _per_chunk_mma(a, b, MXUMode.FP32).tobytes()
    _record_historical("mxu_sgemm", f"{n}x{n}x{n}", "fp32", fast_s)


def test_cgemm_single(benchmark):
    n = CGEMM_N
    rng = np.random.default_rng(12)
    a = quantize_complex(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), FP32
    )
    b = quantize_complex(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), FP32
    )
    fast_driver = TiledGEMM(M3XU(), MXUMode.FP32C)

    got = benchmark.pedantic(fast_driver.run, args=(a, b), rounds=3, iterations=1)
    fast_s, _ = _timed(lambda: fast_driver.run(a, b))

    assert got.tobytes() == _per_chunk_mma(a, b, MXUMode.FP32C).tobytes()
    _record_historical("mxu_cgemm", f"{n}x{n}x{n}", "fp32c", fast_s)


def test_sgemm_batched(benchmark):
    bsz, n = BATCH_S
    rng = np.random.default_rng(13)
    a = rng.standard_normal((bsz, n, n))
    b = rng.standard_normal((bsz, n, n))

    got = benchmark.pedantic(batched_mxu_sgemm, args=(a, b), rounds=3, iterations=1)
    fast_s, _ = _timed(lambda: batched_mxu_sgemm(a, b))
    want = _per_chunk_mma(quantize(a, FP32), quantize(b, FP32), MXUMode.FP32)

    assert got.tobytes() == want.tobytes()
    _record_historical("batched_sgemm", f"{bsz}x{n}^3", "fp32", fast_s)


def test_cgemm_batched(benchmark):
    bsz, n = BATCH_C
    rng = np.random.default_rng(14)
    a = rng.standard_normal((bsz, n, n)) + 1j * rng.standard_normal((bsz, n, n))
    b = rng.standard_normal((bsz, n, n)) + 1j * rng.standard_normal((bsz, n, n))

    got = benchmark.pedantic(batched_mxu_cgemm, args=(a, b), rounds=3, iterations=1)
    fast_s, _ = _timed(lambda: batched_mxu_cgemm(a, b))
    want = _per_chunk_mma(
        quantize_complex(a, FP32), quantize_complex(b, FP32), MXUMode.FP32C)

    assert got.tobytes() == want.tobytes()
    _record_historical("batched_cgemm", f"{bsz}x{n}^3", "fp32c", fast_s)


def test_bitlevel_sgemm(benchmark):
    """Vectorized vs scalar bit-level datapath on a full bit-level GEMM.

    The vector engine runs the whole N^3 GEMM; the scalar oracle is timed
    on ``BITLEVEL_COLS`` columns of the same problem (bit-identity
    asserted on that slice) and extrapolated to the full width.
    """
    n, cols = BITLEVEL_N, BITLEVEL_COLS
    rng = np.random.default_rng(15)
    a = quantize(rng.standard_normal((n, n)), FP32)
    b = quantize(rng.standard_normal((n, n)), FP32)
    vector_driver = TiledGEMM(BitLevelMXU(engine="vector"), MXUMode.FP32)

    got = benchmark.pedantic(vector_driver.run, args=(a, b), rounds=3, iterations=1)
    fast_s, _ = _timed(lambda: vector_driver.run(a, b))
    slice_s, want_slice = _scalar_slice(a, b, cols)
    legacy_s = slice_s * (n / cols)

    # Bit-identity on the timed slice, before anything reaches the JSON.
    assert got[:, :cols].tobytes() == want_slice.tobytes()
    _record("bitlevel_vector_sgemm", f"{n}x{n}x{n}", "fp32",
            legacy_s, fast_s, 10.0, engine="bitlevel:vector",
            extrapolated=f"scalar timed on {cols}/{n} columns")


def test_bitlevel_parallel(benchmark):
    """The sharded whole-chain driver vs the scalar oracle — the headline.

    ``sharded_bitlevel_gemm`` composes the vector engine's batched
    K-chain kernel with the worker pool (serial in-process when
    ``REPRO_WORKERS`` <= 1, as on single-core CI). The scalar oracle is
    timed on a column slice of the same operands, asserted bit-identical
    on that slice, and extrapolated to the full width.
    """
    n, cols = BITLEVEL_N, BITLEVEL_COLS
    rng = np.random.default_rng(15)
    a = quantize(rng.standard_normal((n, n)), FP32)
    b = quantize(rng.standard_normal((n, n)), FP32)

    def run() -> np.ndarray:
        return sharded_bitlevel_gemm(a, b, engine="vector")

    got = benchmark.pedantic(run, rounds=3, iterations=1)
    fast_s, _ = _timed(run)
    slice_s, want_slice = _scalar_slice(a, b, cols)
    legacy_s = slice_s * (n / cols)

    # Bit-identity on the timed slice, before anything reaches the JSON.
    assert got[:, :cols].tobytes() == want_slice.tobytes()
    _record("bitlevel_parallel", f"{n}x{n}x{n}", "fp32",
            legacy_s, fast_s, 100.0, engine="bitlevel:vector",
            chunk=DEFAULT_BITLEVEL_CHUNK,
            extrapolated=f"scalar timed on {cols}/{n} columns")


def test_bitlevel_campaign(benchmark):
    """Vectorized vs scalar bit-level engine under a full fault campaign.

    Both engines run the same seeded campaign config; the scalar engine
    covers a trial prefix (records asserted identical on it) and its time
    is extrapolated to the full trial count.
    """
    trials, sl, d = CAMPAIGN_TRIALS, CAMPAIGN_SLICE, CAMPAIGN_DIM
    cfg = CampaignConfig(
        trials=trials, m=d, n=d, k=d, engine="bitlevel", stages=BITLEVEL_STAGES)
    cfg_slice = CampaignConfig(
        trials=sl, m=d, n=d, k=d, engine="bitlevel", stages=BITLEVEL_STAGES)

    os.environ["REPRO_BITLEVEL"] = "vector"
    try:
        vec_result = benchmark.pedantic(run_campaign, args=(cfg,), rounds=1,
                                        iterations=1)
        fast_s, vec_result = _timed(lambda: run_campaign(cfg))
        os.environ["REPRO_BITLEVEL"] = "scalar"
        slice_s, scalar_result = _timed(lambda: run_campaign(cfg_slice), repeats=1)
    finally:
        os.environ.pop("REPRO_BITLEVEL", None)
    legacy_s = slice_s * (trials / sl)

    # The seeded trial prefix must be engine-independent, record for record.
    assert scalar_result.records == vec_result.records[:sl]
    assert vec_result.undetected_sdc == 0
    _record("bitlevel_vector_campaign", f"{trials}x({d}x{d}x{d})", "fp32",
            legacy_s, fast_s, 10.0, engine="bitlevel:vector",
            extrapolated=f"scalar timed on {sl}/{trials} trials")


def test_split_cache_repeated_operand(benchmark):
    """Warm operand split cache vs cold split on a repeated-A workload.

    The fixed-weights serving pattern: a batch of ``SPLITC_B`` GEMMs
    sharing one A operand (a stack of byte-identical slices) against
    streaming skinny B panels. Cold disables ``REPRO_SPLIT_CACHE`` so
    every call re-quantises and re-splits the full 3-D stack; warm lets
    :class:`~repro.gemm.plan.OperandSplit` dedupe the identical slices
    to one cached 2-D split broadcast across the batch. Bit-identity is
    asserted between the two timed paths before anything reaches the
    JSON, and the arena-hygiene contract — zero leaked shared-memory
    segments after ``parallel.shutdown()`` — is proven by name.
    """
    bsz, n, p = SPLITC_B, SPLITC_N, SPLITC_P
    rng = np.random.default_rng(21)
    a = np.stack([quantize(rng.standard_normal((n, n)), FP32)] * bsz)
    b = rng.standard_normal((bsz, n, p))

    os.environ[SPLIT_CACHE_ENV] = "0"
    try:
        DEFAULT_SPLIT_CACHE.clear()
        cold_s, want = _timed(lambda: batched_mxu_sgemm(a, b))
    finally:
        os.environ.pop(SPLIT_CACHE_ENV, None)

    DEFAULT_SPLIT_CACHE.clear()
    batched_mxu_sgemm(a, b)  # populate the cache once
    got = benchmark.pedantic(batched_mxu_sgemm, args=(a, b), rounds=3, iterations=1)
    warm_s, got_timed = _timed(lambda: batched_mxu_sgemm(a, b))

    # Bit-identity on the timed slice, before anything reaches the JSON.
    assert got.tobytes() == want.tobytes()
    assert got_timed.tobytes() == want.tobytes()
    info = DEFAULT_SPLIT_CACHE.info()
    assert info["hits"] > 0, "warm batched GEMM never hit the split cache"
    _record("split_cache_batched", f"{bsz}x({n}x{n}x{p})", "fp32",
            cold_s, warm_s, 3.0,
            split_cache={"hits": info["hits"], "misses": info["misses"]})

    # Arena hygiene: publish a segment through the sharded bit-level
    # path, then prove shutdown() unlinks it — attaching by name must
    # fail for every segment the arena ever held.
    an = 24 if SMOKE else 48
    aq = quantize(rng.standard_normal((an, an)), FP32)
    bq = quantize(rng.standard_normal((an, an)), FP32)
    fresh = sharded_bitlevel_gemm(aq, bq, engine="vector", workers=2, chunk=an // 2)
    assert fresh.tobytes() == sharded_bitlevel_gemm(
        aq, bq, engine="vector", workers=1
    ).tobytes()
    names = parallel.arena_info()["segments"]
    assert names, "sharded dispatch never published to the operand arena"
    parallel.shutdown()
    assert parallel.arena_info()["entries"] == 0
    for name in names:
        with pytest.raises(FileNotFoundError):
            # repro: allow[FS303] the attach must raise — this is the
            # zero-leaked-segments assertion itself.
            shared_memory.SharedMemory(name=name)
