"""Whole benchmark runs on tiny shapes: metric names, checks, leaks."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def shm() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def bench(*args: str, prelude: str = "", timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run bench/run.py, optionally after *prelude* patched the program."""
    code = (
        f"import runpy, sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{prelude}\n"
        f"sys.argv = [{str(RUN)!r}, *{list(args)!r}]\n"
        f"runpy.run_path({str(RUN)!r}, run_name='__main__')\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    before = shm()
    proc = bench("--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    for metric in CONFIG[kind]:
        pattern = rf"^{re.escape(metric['name'])}\s+(\S+)\s+{re.escape(metric['unit'])}(\s|$)"
        hits = [m for m in (re.match(pattern, line) for line in lines) if m]
        assert len(hits) == len(WORKLOADS), metric["name"]
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {f"{w}/{m['name']}" for w in WORKLOADS for m in CONFIG[kind]}
    assert shm() <= before


FLIP = """
import numpy as np, repro
_orig = repro.mxu_sgemm
def _flipped(a, b, **kw):
    out = _orig(a, b, **kw)
    out.view(np.uint64)[0, 0] ^= 1  # one bit, far inside the float64 bound
    return out
repro.mxu_sgemm = _flipped
"""


def test_one_bit_output_flip_fails_the_run():
    proc = bench("--smoke", "--workload", "sgemm", prelude=FLIP)
    assert proc.returncode == 1, proc.stdout[-4000:]
    assert "digest differs from bench/golden.json" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


LEAK = """
from multiprocessing import shared_memory
import repro
_orig, _held = repro.mxu_sgemm, []
def _leaky(a, b, **kw):
    if not _held:
        _held.append(shared_memory.SharedMemory(create=True, size=64))
    return _orig(a, b, **kw)
repro.mxu_sgemm = _leaky
"""


def test_leaked_shared_memory_segment_fails_the_run():
    before = shm()
    proc = bench("--smoke", "--workload", "sgemm", prelude=LEAK)
    for name in shm() - before:  # normally already reaped at exit
        os.unlink(f"/dev/shm/{name}")
    assert proc.returncode == 1, proc.stdout[-4000:]
    assert "leaked shared-memory segments" in proc.stdout


ORPHANS = """
import subprocess, sys
sys.path.insert(0, {root!r})
from bench.run import _children, become_subreaper, reap_descendants
become_subreaper()
subprocess.run([sys.executable, {run!r}, *{args!r}], stdout=subprocess.DEVNULL, check=True)
print(_children())
reap_descendants()
"""


@pytest.mark.parametrize("workload", ["bitlevel", "serve-mixed"])
def test_no_process_outlives_the_run(workload):
    # Orphans of the run are re-parented to this wrapper, which lists
    # whatever is left (running or not yet waited for) once the run exits.
    code = ORPHANS.format(root=str(ROOT), run=str(RUN), args=["--smoke", "--workload", workload])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "[]"


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no program.
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sgemm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
