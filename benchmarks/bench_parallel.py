"""Parallel-engine scaling: warm persistent pool and strong scaling.

Not a paper figure: this regression-guards the orchestration layer the
same way ``bench_hotpath.py`` guards the per-GEMM fast path. Two
questions are measured on the same operands, with bit-identity asserted
between every configuration:

* **Pool scaling** — a 16×48³ FP32 stack through ``mxu_sgemm`` at
  ``workers ∈ {1, 2, 4}``, bit-identical to ``workers=1``. The stack
  carries 1.8·10⁶ multiply-adds, below one ``SHARD_MIN_MACS`` floor
  (2²⁴), so by the floor it runs in process, one chain call, at every
  worker count. ``percall_s`` is the committed time of the deleted
  per-call engine (an executor spawned and torn down inside each call):
  a frozen historical value (rows marked ``"historical": true``), so
  ``warm_speedup`` compares today's ``warm_s`` against it and has no
  floor.
* **Strong scaling** — one 512³ FP32 GEMM through the tiled driver at
  ``workers ∈ {1, 2, 4, cpu_count}``, at the bit level
  (:func:`repro.mxu.sharded_bitlevel_gemm`, the driver on a
  ``BitLevelMXU``; rows ``bitlevel``) and at the value level
  (``mxu_sgemm`` on ``M3XU``; rows ``valuelevel``). The driver fans
  column blocks out only when each carries ``SHARD_MIN_MACS``
  multiply-adds; 512³ carries eight, so every worker count above one
  cuts one block per worker (``chunk`` records the columns per block).
  The contract asserted is bit-identity to the serial chain at *every*
  worker count.

Results land in ``BENCH_parallel.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the shapes so the suite doubles as a CI
smoke test (bit-identity still asserted; speed floors waived at toy
sizes). The strong-scaling sweeps scale the work floor with the shape
there, so the toy GEMM is cut into the same blocks as the full one.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import parallel
from repro.gemm import tiled
from repro.gemm.tiled import mxu_sgemm
from repro.mxu import sharded_bitlevel_gemm
from repro.types.formats import FP32
from repro.types.quantize import quantize

from conftest import bench_print, column_block_width

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: FP32 GEMM stack shape (batch, N) of the pool-scaling rows.
BATCH, N = (6, 24) if SMOKE else (16, 48)
WORKER_GRID = [1, 2, 4]

#: Committed best-of-3 times of the deleted per-call pool engine at the
#: full shape above, by worker count.
HISTORICAL_PERCALL_S = {
    1: 0.01488745299866423,
    2: 0.03636609800014412,
    4: 0.05402307699841913,
}

#: Square GEMM size of the strong-scaling sweeps. The full size carries
#: eight work floors, enough that the chain kernel dominates the pool
#: and transport overhead (docs/performance.md, "Sharding by work").
SCALING_N = 32 if SMOKE else 512
FULL_SCALING_N = 512

_DATA: dict = {"smoke": SMOKE, "pool": [], "bitlevel": [], "valuelevel": []}
_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


@pytest.fixture(scope="module", autouse=True)
def _write_json():
    parallel.shutdown()  # count pool spawns from a clean slate
    yield
    parallel.shutdown()
    _JSON_PATH.write_text(json.dumps(_DATA, indent=2))
    bench_print(f"\nparallel-engine curves written to {_JSON_PATH.name}:")
    for r in _DATA["pool"]:
        bench_print(
            f"  workers={r['workers']}  per-call {r['percall_s'] * 1e3:8.1f} ms"
            f" / warm {r['warm_s'] * 1e3:8.1f} ms = {r['warm_speedup']:.2f}x"
        )
    for level in ("bitlevel", "valuelevel"):
        for r in _DATA[level]:
            bench_print(
                f"  {level} {r['shape']}  workers={r['workers']}"
                f"  {r['wall_s'] * 1e3:8.1f} ms  ({r['vs_serial']:.2f}x vs serial)"
            )


def _best_of(fn, repeats: int = 3) -> tuple[float, np.ndarray]:
    best, out = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_pool_scaling(benchmark):
    rng = np.random.default_rng(21)
    a = rng.standard_normal((BATCH, N, N))
    b = rng.standard_normal((BATCH, N, N))
    reference = mxu_sgemm(a, b, workers=1)

    for w in WORKER_GRID:
        parallel.shutdown()
        mxu_sgemm(a, b, workers=w)  # prime the persistent pool
        spawns_before = parallel.pool_info()["spawns"]
        warm_s, got_warm = _best_of(lambda w=w: mxu_sgemm(a, b, workers=w))
        assert parallel.pool_info()["spawns"] == spawns_before, (
            f"warm timing at workers={w} respawned the pool"
        )
        assert got_warm.tobytes() == reference.tobytes()
        percall_s = HISTORICAL_PERCALL_S[w]
        _DATA["pool"].append(
            {
                "workers": w,
                "shape": f"{BATCH}x{N}^3",
                "percall_s": percall_s,
                "warm_s": warm_s,
                "warm_speedup": percall_s / warm_s,
                "historical": True,
            }
        )

    # pytest-benchmark record of the headline configuration (warm, w=4).
    got = benchmark.pedantic(
        mxu_sgemm, args=(a, b), kwargs={"workers": 4}, rounds=3, iterations=1
    )
    assert got.tobytes() == reference.tobytes()


def _strong_scaling(benchmark, monkeypatch, level: str, engine: str, gemm) -> None:
    """Wall time of ``gemm(a, b, workers)`` vs worker count, bit-identical."""
    n = SCALING_N
    if SMOKE:  # the toy shape carries as many floors as the full one
        monkeypatch.setattr(
            tiled, "SHARD_MIN_MACS", tiled.SHARD_MIN_MACS * n**3 // FULL_SCALING_N**3
        )
    rng = np.random.default_rng(23)
    a = quantize(rng.standard_normal((n, n)), FP32)
    b = quantize(rng.standard_normal((n, n)), FP32)
    reference = gemm(a, b, 1)

    grid = sorted({1, 2, 4, os.cpu_count() or 1})
    serial_s = None
    for w in grid:
        parallel.shutdown()
        if w > 1:  # prime the persistent pool so spawn cost isn't timed
            gemm(a, b, w)
        wall_s, got = _best_of(lambda w=w: gemm(a, b, w))
        assert got.tobytes() == reference.tobytes(), (
            f"{level} GEMM diverged from serial at workers={w}"
        )
        if serial_s is None:
            serial_s = wall_s
        _DATA[level].append(
            {
                "workers": w,
                "shape": f"{n}x{n}x{n}",
                "engine": engine,
                "chunk": column_block_width(a, b, w),
                "wall_s": wall_s,
                "vs_serial": serial_s / wall_s,
            }
        )

    got = benchmark.pedantic(gemm, args=(a, b, grid[-1]), rounds=3, iterations=1)
    assert got.tobytes() == reference.tobytes()


def test_bitlevel_strong_scaling(benchmark, monkeypatch):
    """The bit-level GEMM (vector engine) against the worker count."""
    _strong_scaling(
        benchmark, monkeypatch, "bitlevel", "bitlevel:vector",
        lambda a, b, w: sharded_bitlevel_gemm(a, b, engine="vector", workers=w),
    )


def test_valuelevel_strong_scaling(benchmark, monkeypatch):
    """The value-level GEMM (``M3XU``) against the worker count."""
    _strong_scaling(
        benchmark, monkeypatch, "valuelevel", "m3xu",
        lambda a, b, w: mxu_sgemm(a, b, abft=False, workers=w),
    )

