"""Parallel-engine scaling: warm persistent pool, cache hit vs miss.

Not a paper figure: this regression-guards the orchestration layer the
same way ``bench_hotpath.py`` guards the per-GEMM fast path. Three
questions are measured on the same operands, with bit-identity asserted
between every configuration:

* **Pool scaling** — batched FP32 GEMM at ``workers ∈ {1, 2, 4}``
  through the warm persistent pool, bit-identical to ``workers=1``.
  ``percall_s`` is the committed time of the deleted per-call engine
  (an executor spawned and torn down inside each call): a frozen
  historical value (rows marked ``"historical": true``), so
  ``warm_speedup`` compares today's ``warm_s`` against it and has no
  floor.
* **Cache** — a first (cold) ``run_all()`` vs a second in the same
  process. Acceptance: the cached sweep is ≥ 10× faster, and
  ``use_cache=False`` reproduces the cold results bit-identically.
* **Bit-level strong scaling** — the sharded whole-chain bit-level GEMM
  (:func:`repro.mxu.parallel_bitlevel.sharded_bitlevel_gemm`) at
  ``workers ∈ {1, 2, 4, cpu_count}``. No speed floor (the CI box may be
  single-core, where extra workers only add transport overhead); the
  contract asserted is bit-identity to the serial chain at *every*
  worker count, with the wall-time curve recorded for machines that do
  have cores to scale onto.

Results land in ``BENCH_parallel.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the shapes so the suite doubles as a CI
smoke test (bit-identity still asserted; speed floors waived at toy
sizes).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import parallel
from repro.cache import DEFAULT_CACHE
from repro.eval.runner import render_report, run_all
from repro.gemm.batched import batched_mxu_sgemm
from repro.mxu.parallel_bitlevel import DEFAULT_BITLEVEL_CHUNK, sharded_bitlevel_gemm
from repro.types.formats import FP32
from repro.types.quantize import quantize

from conftest import bench_print

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: Batched FP32 GEMM shape (batch, N) — sized so per-call pool spawn and
#: operand pickling are a visible fraction of the call.
BATCH, N = (6, 24) if SMOKE else (16, 48)
WORKER_GRID = [1, 2, 4]

#: Committed best-of-3 times of the deleted per-call pool engine at the
#: full shape above, by worker count.
HISTORICAL_PERCALL_S = {
    1: 0.01488745299866423,
    2: 0.03636609800014412,
    4: 0.05402307699841913,
}

#: Square bit-level GEMM size for the strong-scaling sweep — big enough
#: that the chain kernel dominates the pool/transport overhead.
BITLEVEL_N = 32 if SMOKE else 128

_DATA: dict = {"smoke": SMOKE, "pool": [], "cache": {}, "bitlevel": []}
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
    c = _DATA["cache"]
    if c:
        bench_print(
            f"  run_all  cold {c['first_s'] * 1e3:8.1f} ms"
            f" / cached {c['second_s'] * 1e3:8.1f} ms = {c['speedup']:.0f}x"
            f"  (no-cache bit-identical: {c['nocache_identical']})"
        )
    for r in _DATA["bitlevel"]:
        bench_print(
            f"  bitlevel {r['shape']}  workers={r['workers']}"
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
    reference = batched_mxu_sgemm(a, b, workers=1)

    for w in WORKER_GRID:
        parallel.shutdown()
        batched_mxu_sgemm(a, b, workers=w)  # prime the persistent pool
        spawns_before = parallel.pool_info()["spawns"]
        warm_s, got_warm = _best_of(lambda w=w: batched_mxu_sgemm(a, b, workers=w))
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
        batched_mxu_sgemm, args=(a, b), kwargs={"workers": 4}, rounds=3, iterations=1
    )
    assert got.tobytes() == reference.tobytes()


def test_bitlevel_strong_scaling(benchmark):
    """Sharded bit-level GEMM wall time vs worker count, bit-identical."""
    n = BITLEVEL_N
    rng = np.random.default_rng(23)
    a = quantize(rng.standard_normal((n, n)), FP32)
    b = quantize(rng.standard_normal((n, n)), FP32)
    reference = sharded_bitlevel_gemm(a, b, engine="vector", workers=1)

    grid = sorted({1, 2, 4, os.cpu_count() or 1})
    serial_s = None
    for w in grid:
        parallel.shutdown()
        if w > 1:  # prime the persistent pool so spawn cost isn't timed
            sharded_bitlevel_gemm(a, b, engine="vector", workers=w)
        wall_s, got = _best_of(
            lambda w=w: sharded_bitlevel_gemm(a, b, engine="vector", workers=w)
        )
        assert got.tobytes() == reference.tobytes(), (
            f"sharded bit-level GEMM diverged from serial at workers={w}"
        )
        if serial_s is None:
            serial_s = wall_s
        _DATA["bitlevel"].append(
            {
                "workers": w,
                "shape": f"{n}x{n}x{n}",
                "engine": "bitlevel:vector",
                "chunk": DEFAULT_BITLEVEL_CHUNK,
                "wall_s": wall_s,
                "vs_serial": serial_s / wall_s,
            }
        )

    got = benchmark.pedantic(
        sharded_bitlevel_gemm, args=(a, b),
        kwargs={"engine": "vector", "workers": grid[-1]},
        rounds=3, iterations=1,
    )
    assert got.tobytes() == reference.tobytes()


def test_cache_hit_vs_miss():
    DEFAULT_CACHE.clear()
    first_s, first = _best_of(lambda: run_all(workers=1), repeats=1)
    second_s, second = _best_of(lambda: run_all(workers=1), repeats=3)
    text_first = render_report(first)
    assert render_report(second) == text_first

    nocache_s, cold = _best_of(
        lambda: run_all(workers=1, use_cache=False), repeats=1
    )
    identical = render_report(cold) == text_first
    assert identical, "use_cache=False diverged from the cached results"

    speedup = first_s / second_s
    _DATA["cache"] = {
        "experiments": len(first),
        "first_s": first_s,
        "second_s": second_s,
        "nocache_s": nocache_s,
        "speedup": speedup,
        "nocache_identical": identical,
    }
    if not SMOKE:
        assert speedup >= 10.0, (
            f"cached run_all only {speedup:.1f}x faster than cold (required >= 10x)"
        )
