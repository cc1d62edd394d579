"""In-process workloads: value-level GEMM and the sharded bit-level GEMM.

Each call gets fresh operands from the seeded stream, generated before
its timer starts; its output is hashed and checked against a float64
reference after the timer stops. The window is wall time, so a faster
program runs more calls in it.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from bench.trace import Tracer


@dataclass(frozen=True)
class GemmSpec:
    """One in-process workload: which entry point, at which shape."""

    name: str
    m: int
    k: int
    n: int
    complex: bool
    workers: int


#: Full-size shapes. Each call takes 50-120 ms on a 2-core x86 box, so a
#: 20 s window holds well over a hundred calls and p90 has ten beyond it.
#: bitlevel keeps N = 256, i.e. four 64-column blocks for two workers.
FULL = {
    "sgemm": GemmSpec("sgemm", 256, 256, 256, complex=False, workers=1),
    "cgemm": GemmSpec("cgemm", 128, 128, 128, complex=True, workers=1),
    "bitlevel": GemmSpec("bitlevel", 64, 64, 256, complex=False, workers=2),
}
SMOKE = {
    "sgemm": GemmSpec("sgemm", 32, 32, 32, complex=False, workers=1),
    "cgemm": GemmSpec("cgemm", 16, 16, 16, complex=True, workers=1),
    "bitlevel": GemmSpec("bitlevel", 16, 16, 128, complex=False, workers=2),
}

#: Untimed calls before the window: the first call forks the pool and
#: touches every lazily initialised path.
WARMUP_CALLS = 2


def operands(spec: GemmSpec, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The seeded operand stream of one workload: fresh (A, B) per call."""
    rng = np.random.default_rng([seed, sorted(FULL).index(spec.name)])

    def matrix(rows: int, cols: int) -> np.ndarray:
        x = rng.standard_normal((rows, cols))
        return x + 1j * rng.standard_normal((rows, cols)) if spec.complex else x

    while True:
        yield matrix(spec.m, spec.k), matrix(spec.k, spec.n)


def entry_point(spec: GemmSpec) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The public call one operation makes. Looked up at call time, so a
    caller that replaces ``repro.mxu_sgemm`` is honoured."""
    import repro
    import repro.mxu

    if spec.name == "bitlevel":
        return lambda a, b: repro.mxu.sharded_bitlevel_gemm(a, b, workers=spec.workers)
    if spec.complex:
        return lambda a, b: repro.mxu_cgemm(a, b, workers=spec.workers)
    return lambda a, b: repro.mxu_sgemm(a, b, workers=spec.workers)


def reference(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Float64 product of the FP32-rounded operands, and K."""
    if np.iscomplexobj(a):
        a32 = a.astype(np.complex64).astype(np.complex128)
        b32 = b.astype(np.complex64).astype(np.complex128)
    else:
        a32 = a.astype(np.float32).astype(np.float64)
        b32 = b.astype(np.float32).astype(np.float64)
    return a32 @ b32, a.shape[1]


def tolerance(k: int, ref: np.ndarray, stages_per_k: int = 4) -> float:
    """The serving layer's silent-corruption threshold: generous for
    accumulated FP32 rounding, far below any datapath corruption."""
    scale = float(np.max(np.abs(ref))) if ref.size else 1.0
    return max(stages_per_k * k * 2.0**-23 * max(scale, 1.0), 1e-9)


def digest(x: np.ndarray) -> str:
    """First 128 bits of the SHA-256 of the output bytes, in hex."""
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:32]


@dataclass
class InprocRun:
    """What one in-process run measured and checked."""

    latencies_ms: list[float] = field(default_factory=list)
    untraced_ms: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    counters: dict[str, int] = field(default_factory=dict)
    chain_peak_alloc_mb: float = 0.0


def _parent_counters() -> dict[str, int]:
    from repro import parallel

    info = parallel.pool_info()
    return {
        "arena_publishes": int(info["arena"]["publishes"]),
        "pool_retries": int(
            info["task_retries"] + info["timeout_events"] + info["broken_events"]
        ),
    }


def run_inproc(
    spec: GemmSpec,
    seed: int,
    seconds: float,
    golden: list[str] | None,
    tracer: Tracer | None = None,
    calls: int | None = None,
) -> InprocRun:
    """Run *spec* for *seconds* of wall time (or exactly *calls* calls).

    With a tracer, operations alternate between traced and untraced so
    the run measures what tracing costs; only traced operations record
    spans. ``golden`` holds the expected output digests at the default
    seed, by call index.
    """
    call = entry_point(spec)
    stream = operands(spec, seed)
    out = InprocRun()
    warm = operands(spec, seed + 1_000_003)
    if tracer is not None:
        tracer.enabled = False
    for _ in range(WARMUP_CALLS):
        call(*next(warm))

    first: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    before = _parent_counters()
    t_end = time.perf_counter() + seconds
    i = 0
    while (calls is None and time.perf_counter() < t_end) or (calls is not None and i < calls):
        a, b = next(stream)
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
        with tracer.span("op", op=i) if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = call(a, b)
            dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        (out.latencies_ms if tracer is None or traced else out.untraced_ms).append(dt * 1e3)
        _check(out, i, a, b, result, golden)
        if first is None:
            first = (a, b, result)
        i += 1
    after = _parent_counters()
    out.counters = {k: after[k] - before[k] for k in after}

    if spec.name == "bitlevel" and first is not None:
        _check_oracle(out, *first)
        if tracer is not None:
            out.chain_peak_alloc_mb = chain_peak_alloc_mb(seed)
    return out


def _check(
    out: InprocRun,
    i: int,
    a: np.ndarray,
    b: np.ndarray,
    result: np.ndarray,
    golden: list[str] | None,
) -> None:
    d = digest(result)
    out.digests.append(d)
    found = []
    if golden is not None and i < len(golden) and golden[i] != d:
        found.append("output digest differs from bench/golden.json")
    ref, k = reference(a, b)
    if result.shape != ref.shape:
        found.append(f"output shape {result.shape} != {ref.shape}")
    else:
        err = float(np.max(np.abs(result - ref)))
        if not err <= tolerance(k, ref):
            found.append(f"max error {err:.3g} exceeds the float64 bound")
    if found:
        out.failed.add(i)
        out.errors += [f"call {i}: {f}" for f in found]


def _check_oracle(out: InprocRun, a: np.ndarray, b: np.ndarray, result: np.ndarray) -> None:
    """Two columns of the first call against the scalar bit-level oracle."""
    from repro.gemm import TiledGEMM
    from repro.mxu import BitLevelMXU, MXUMode

    oracle = TiledGEMM(BitLevelMXU(engine="scalar"), MXUMode.FP32, workers=1).run(a, b[:, :2])
    if oracle.tobytes() != np.ascontiguousarray(result[:, :2]).tobytes():
        out.failed.add(0)
        out.errors.append("call 0: columns 0-1 differ from the scalar bit-level oracle")


def chain_peak_alloc_mb(seed: int) -> float:
    """tracemalloc peak of one ``chained_vector_fp32`` call on a 256x64
    block with K = 256 (untimed; numpy reports its buffers to tracemalloc)."""
    from repro.mxu.vectorized import chained_vector_fp32

    rng = np.random.default_rng([seed, 99])
    a = rng.standard_normal((256, 256)).astype(np.float32).astype(np.float64)
    b = rng.standard_normal((256, 64)).astype(np.float32).astype(np.float64)
    tracemalloc.start()
    try:
        chained_vector_fp32(a, b, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
