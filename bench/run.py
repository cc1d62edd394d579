"""The repro benchmark: end-to-end and per-layer metrics on five workloads.

Usage::

    python bench/run.py [--workload W ...] [--seed S] [--seconds T]
                        [--trace {0,1}] [--trace-dir DIR] [--out FILE]
                        [--smoke] [--capacity] [--write-golden]

With ``--trace 0`` (the default) each workload measures the end-to-end
metrics of ``BENCHMARK.json`` with nothing wrapped. ``--trace 1`` reruns
the same workload, seed and window with span wrappers installed around
each layer (``bench/trace.py``) and reports the per-layer metrics plus
what tracing cost; the spans land in ``--trace-dir`` as Chrome
trace-event JSON (``trace.json``) beside ``layers.json``.

Every output is checked: against ``bench/golden.json`` at the default
seed, against a float64 reference at any seed. A wrong output makes the
run exit 1. A run whose load generator fell behind or that had fewer
than two CPUs prints ``INVALID:`` lines and lists why in the ``invalid``
field of its ``--out`` record, but still exits 0: its latencies are
timed from the schedule, so they already count the generator's delay.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

The benchmark reads the BLAS and ``REPRO_*`` settings it runs under and
records them; it never sets them.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: The workload seed when ``--seed`` is not given; bench/golden.json
#: holds the output digests at this seed.
DEFAULT_SEED = 11

#: Cold starts per run; setup_s is their median.
SETUP_STARTS = 5

#: A run whose generator sent its p99 request later than this is invalid.
MAX_LAG_MS = 10.0

#: Calls per in-process workload whose output digests golden.json holds.
GOLDEN_CALLS = 256

EXIT_WRONG = 1


@dataclass
class Record:
    """Everything one workload run measured, checked and found."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    invalid: list[str] = field(default_factory=list)
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    env: dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, value: float, n: int | None = None, **extra: float) -> None:
        self.metrics[name] = {"value": float(value), **({"n": n} if n is not None else {}), **extra}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """BLAS library name and its thread count, as numpy loaded it."""
    import ctypes

    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return name, None
    libs = {line.split()[-1] for line in maps.splitlines() if "blas" in line and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict[str, Any]:
    import numpy as np

    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "knobs": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(("REPRO_", "OPENBLAS_", "OMP_", "MKL_"))
        },
        "commit": _commit(),
        "seed": seed,
    }


def shm_segments() -> set[str]:
    """Shared-memory segments the standard library creates (``psm_*``)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONUNBUFFERED"] = "1"
    return env


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux only).

    The resource trackers that multiprocessing starts in this process, in
    each cold start and in the server outlive their parents for a moment.
    As a child subreaper this process inherits them, so
    :func:`reap_descendants` can wait for every one to end.
    """
    import ctypes

    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_descendants(timeout: float = 20.0) -> None:
    """Stop the pool and the resource tracker this process started, then
    wait until every child, adopted ones included, has ended; whatever is
    still running after *timeout* seconds is killed."""
    parallel = sys.modules.get("repro.parallel")
    if parallel is not None:
        parallel.shutdown()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def peak_rss_mb(include_self: bool) -> float:
    """Largest peak RSS of this process (optionally) and its waited
    children, their waited children included."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _timing_metrics(rec: Record, latencies: list[float]) -> None:
    from bench.stats import summary

    s = summary(latencies)
    rec.metric("latency_ms_p50", s["p50"], n=s["n"], q1=s["q1"], q3=s["q3"])
    # Tails are diagnostics: a few slow seconds of a shared VM move p90
    # by a third between runs, so it cannot carry a regression bound.
    rec.notes["latency_ms_p90"] = s["p90"]
    rec.notes["latency_ms_p99"] = s["p99"]


def coldstart_inproc(name: str, starts: int) -> list[float]:
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "coldstart.py"), str(SRC), name],
            stdout=subprocess.PIPE, env=child_env(),
        )
        assert proc.stdout is not None
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"cold start of {name} failed: {line!r}")
    return times


def coldstart_serve(starts: int) -> list[float]:
    from bench import serve_load

    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc, port = serve_load.start_server(serve_load.server_command(ROOT, None), child_env())
        try:
            serve_load.first_response(port)
            times.append(time.perf_counter() - t0)
        finally:
            serve_load.stop_server(proc, port)
    return times


def run_inproc_workload(name: str, args: argparse.Namespace, trace_dir: Path | None) -> Record:
    from bench import inproc, layers
    from bench.trace import read_span_files, repro_tracer

    import repro.parallel

    spec = (inproc.SMOKE if args.smoke else inproc.FULL)[name]
    rec = Record(name)
    golden = load_golden(name, args)
    tracer = repro_tracer(trace_dir) if trace_dir is not None else None
    if tracer is None:
        setup = coldstart_inproc(name, 1 if args.smoke else SETUP_STARTS)
        rec.metric("setup_s", statistics.median(setup), n=len(setup))
    run = inproc.run_inproc(spec, args.seed, args.seconds, golden, tracer)
    repro.parallel.shutdown()
    rec.attempted = len(run.latencies_ms) + len(run.untraced_ms)
    rec.failed = len(run.failed)
    rec.errors += run.errors
    rec.notes["shape"] = dataclasses.asdict(spec)
    if golden is None:
        rec.notes["golden"] = "not checked (seed or shape differs from golden.json)"
    elif rec.attempted > len(golden):
        rec.notes["golden"] = f"calls beyond {len(golden)} checked against the float64 bound only"
    if tracer is None:
        _timing_metrics(rec, run.latencies_ms)
        rec.metric("peak_rss_mb", peak_rss_mb(include_self=True))
        return rec

    files = read_span_files(trace_dir)
    spans = tracer.local_spans() + files.spans
    values = layers.span_metrics(spans, files.worker_pids, files.counters, len(run.latencies_ms), spec.workers)
    values.update({
        # Counters cover every operation of the window, traced or not.
        "arena.publishes_per_op": run.counters["arena_publishes"] / rec.attempted,
        "pool.retries_per_kop": 1000.0 * run.counters["pool_retries"] / rec.attempted,
        "vectorized.chain_peak_alloc_mb": run.chain_peak_alloc_mb,
        "trace.overhead_frac": statistics.median(run.latencies_ms) / statistics.median(run.untraced_ms) - 1.0,
        "trace.coverage": layers.coverage(spans),
    })
    _finish_layers(rec, values, tracer.installed, tracer.missing, spans, trace_dir)
    return rec


def run_serve_workload(name: str, args: argparse.Namespace, trace_dir: Path | None) -> Record:
    from bench import layers, serve_load
    from bench.stats import percentile
    from bench.trace import read_span_files, resolve_targets

    spec = (serve_load.SMOKE if args.smoke else serve_load.FULL)[name]
    rec = Record(name)
    if trace_dir is None:
        setup = coldstart_serve(1 if args.smoke else SETUP_STARTS)
        rec.metric("setup_s", statistics.median(setup), n=len(setup))
    reqs = serve_load.build_requests(spec, args.seed, args.seconds)
    proc, port = serve_load.start_server(serve_load.server_command(ROOT, trace_dir), child_env())
    try:
        load = asyncio.run(serve_load.drive(
            port, reqs, spec, args.seconds, toggle_pid=proc.pid if trace_dir is not None else None
        ))
        if args.capacity:
            rec.notes["capacity_rps"] = asyncio.run(serve_load.capacity(port, spec, args.seed, 10.0))
    finally:
        serve_load.stop_server(proc, port)
    checked = serve_load.check(reqs, load)
    rows = checked.rows
    rec.attempted, rec.failed = len(rows), checked.failed
    rec.errors += [f"request {rid}: result outside the float64 bound" for rid in checked.wrong]
    rec.notes["statuses"] = checked.statuses
    lag = percentile([r.lateness_ms for r in rows], 99.0)
    rec.notes["loadgen_lag_ms_p99"] = lag
    if lag > MAX_LAG_MS:
        rec.invalid.append(f"generator lateness p99 {lag:.2f} ms > {MAX_LAG_MS} ms")
    if trace_dir is None:
        _timing_metrics(rec, [r.latency_ms for r in rows])
        rec.metric("peak_rss_mb", peak_rss_mb(include_self=False))
        return rec

    # Alternate one-second blocks ran traced; spans exist only for those.
    in_block = [any(a <= r.due < b for a, b in load.traced_blocks) for r in rows]
    traced = [r for r, on in zip(rows, in_block) if on]
    untraced = [r for r, on in zip(rows, in_block) if not on]
    served = [r for r in traced if r.ok]
    files = read_span_files(trace_dir)
    values = layers.span_metrics(files.spans, files.worker_pids, files.counters, len(traced), workers=1)
    batchable = sum(1 for r in reqs if r.measured and r.op in ("gemm", "cgemm"))
    values.update(layers.server_counters(load.stats_before, load.stats_after, len(rows), batchable))
    service = statistics.fmean(r.service_ms for r in served)
    attributed = sum(values[k] for k in (
        "server.json_loads_ms_per_req", "server.parse_ms_per_req",
        "server.wait_ms_per_req", "server.compute_ms_per_req",
    ))
    values.update({
        "server.request_bytes_mean": statistics.fmean(r.request_bytes for r in rows),
        "server.response_bytes_mean": statistics.fmean(r.response_bytes for r in rows if r.ok),
        "server.service_ms_p50": statistics.median(r.service_ms for r in served),
        "server.wire_ms_p50": statistics.median(r.wire_ms for r in served),
        "loadgen.lag_ms_p99": lag,
        "trace.overhead_frac": (
            statistics.median(r.latency_ms for r in traced)
            / statistics.median(r.latency_ms for r in untraced) - 1.0
        ),
        "trace.coverage": attributed / service,
    })
    installed, missing = resolve_targets()
    _finish_layers(rec, values, installed, missing, files.spans, trace_dir)
    return rec


def _finish_layers(
    rec: Record, values: dict[str, float], installed: list, missing: list, spans: list, trace_dir: Path
) -> None:
    """Keep the per-layer metrics BENCHMARK.json lists; write the trace."""
    from bench import layers
    from bench.trace import chrome_trace

    na = layers.unavailable(installed, missing)
    for name in metric_units("per_layer"):
        rec.metric(name, 0.0 if name in na else values.get(name, 0.0))
        if name in na:
            rec.metrics[name]["na"] = na[name]
    (trace_dir / "trace.json").write_text(json.dumps(chrome_trace(spans)))
    (trace_dir / "layers.json").write_text(json.dumps(
        {"workload": rec.workload, "metrics": rec.metrics, "spans": len(spans)}, indent=1
    ))
    rec.notes["trace_dir"] = str(trace_dir)


# ----------------------------------------------------------------------
# Golden outputs
# ----------------------------------------------------------------------
def load_golden(name: str, args: argparse.Namespace) -> list[str] | None:
    """Expected output digests by call index, at the default seed only."""
    if args.seed != DEFAULT_SEED:
        return None
    data = json.loads((ROOT / "bench" / "golden.json").read_text())
    return data["smoke" if args.smoke else "full"].get(name)


def write_golden() -> int:
    """Regenerate bench/golden.json: the output digests of the first
    GOLDEN_CALLS calls of every in-process workload at the default seed.
    The bytes are fixed by the program's bit-exactness contract, so a
    change here means the program's results changed."""
    from bench import inproc

    import repro.parallel

    data: dict[str, Any] = {"seed": DEFAULT_SEED, "calls": GOLDEN_CALLS}
    for size, specs in (("full", inproc.FULL), ("smoke", inproc.SMOKE)):
        data[size] = {}
        for name, spec in specs.items():
            run = inproc.run_inproc(spec, DEFAULT_SEED, 0.0, None, calls=GOLDEN_CALLS)
            if run.errors:
                print("\n".join(run.errors), file=sys.stderr)
                return EXIT_WRONG
            data[size][name] = run.digests
            print(f"golden: {size} {name}: {len(run.digests)} digests")
    repro.parallel.shutdown()
    (ROOT / "bench" / "golden.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def config() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in config()[kind]}


def run_one(name: str, args: argparse.Namespace) -> Record:
    trace_dir = None
    if args.trace:
        trace_dir = Path(args.trace_dir or OUT / "trace") / name
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob("spans-*.jsonl"):
            old.unlink()
    before = shm_segments()
    runner = run_serve_workload if name.startswith("serve-") else run_inproc_workload
    rec = runner(name, args, trace_dir)
    leaked = shm_segments() - before
    if leaked:
        rec.errors.append(f"leaked shared-memory segments: {sorted(leaked)}")
    rec.env = environment(args.seed)
    if "loadgen_lag_ms_p99" in rec.notes:
        rec.env["loadgen_lag_ms_p99"] = rec.notes["loadgen_lag_ms_p99"]
    if rec.env["nproc"] < 2:
        rec.invalid.append(f"{rec.env['nproc']} CPU(s); the benchmark needs at least 2")
    return rec


def print_record(rec: Record, units: dict[str, str]) -> None:
    print(f"== {rec.workload}: {rec.attempted} operations, {rec.failed} failed")
    for key, value in rec.notes.items():
        print(f"   {key}: {value}")
    for name, m in rec.metrics.items():
        if "na" in m:
            print(f"{name:40} {'n/a':>12}  {units[name]:9} {m['na']}")
            continue
        extra = "  ".join(f"{k}={m[k]:.6g}" for k in ("n", "q1", "q3") if k in m)
        print(f"{name:40} {m['value']:12.6g}  {units[name]:9} {extra}")
    for line in rec.errors[:20]:
        print(f"WRONG: {line}")
    for line in rec.invalid:
        print(f"INVALID: {line}")


def result_line(rec: Record, units: dict[str, str]) -> dict[str, Any]:
    return {
        "correct": not rec.errors,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": rec.metrics[name]["value"], "unit": unit} for name, unit in units.items()
        },
    }


def main_one(name: str, args: argparse.Namespace) -> int:
    units = metric_units("per_layer" if args.trace else "end_to_end")
    rec = run_one(name, args)
    print(f"env: {json.dumps(rec.env)}")
    print_record(rec, units)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "trace": bool(args.trace), "smoke": args.smoke,
            "workloads": {name: rec.__dict__},
        }, indent=1))
    print(json.dumps(result_line(rec, units)))
    return EXIT_WRONG if rec.errors else 0


def main_many(names: list[str], args: argparse.Namespace) -> int:
    """Run each workload in a fresh process (so peak RSS and the program's
    process-wide caches start clean) and combine their results."""
    OUT.mkdir(exist_ok=True)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    common += ["--trace-dir", args.trace_dir] if args.trace_dir else []
    common += ["--smoke"] if args.smoke else []
    common += ["--capacity"] if args.capacity else []
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records: dict[str, Any] = {}
    code = 0
    for name in names:
        part = OUT / f"result-{name}.json"
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--out", str(part), *common],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"== {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
        records.update(json.loads(part.read_text())["workloads"])
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "trace": bool(args.trace), "smoke": args.smoke, "workloads": records,
        }, indent=1))
    print(json.dumps(combined))
    return code


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=[w["name"] for w in config()["workloads"]],
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed of every operand, arrival and repeat (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window per workload (default: BENCHMARK.json run_seconds; 2 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: install the span wrappers and report per-layer metrics")
    p.add_argument("--trace-dir", default=None,
                   help="where traced runs write spans, trace.json and layers.json "
                        "(default .bench_out/trace; one subdirectory per workload)")
    p.add_argument("--out", default=None, help="write the full result record (JSON) here")
    p.add_argument("--smoke", action="store_true",
                   help="tiny shapes, one cold start and short windows: a quick self-check")
    p.add_argument("--capacity", action="store_true",
                   help="serve workloads: add a 10 s closed loop with 16 requests in flight")
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate bench/golden.json at the default seed and exit")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(config()["run_seconds"])
    return args


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: {SRC / 'repro'} or BENCHMARK.json is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    # The checkout root replaces bench/ on the path, where trace.py would
    # shadow the standard library's trace module.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(SRC))
    args = parse_args(argv)
    become_subreaper()
    try:
        if args.write_golden:
            return write_golden()
        names = args.workload or [w["name"] for w in config()["workloads"]]
        if len(names) == 1:
            return main_one(names[0], args)
        return main_many(names, args)
    finally:
        reap_descendants()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
