"""Benchmark-side span tracing: timing wrappers around repro's layers.

The benchmark measures the program from the outside. Nothing under
``src/`` knows it is traced: :class:`Tracer` replaces selected functions
and methods of the loaded ``repro.*`` modules with wrappers that record
one span per call, and the benchmark reads the spans back.

* :data:`TARGETS` lists ``(module, attribute, span name)`` entries. An
  attribute is a function (``"quantize"``), a method on a class
  (``"GemmPlan.build"``) or a function of a module the target module
  imported (``"json.loads"``, wrapped for that one module only).
* A function wrapper replaces *every* binding of the original object
  across the loaded ``repro.*`` modules, found by identity, so a consumer
  that did ``from x import f`` calls the wrapper too. Methods are patched
  on their class.
* A target that no longer exists is skipped and listed in
  :attr:`Tracer.missing`; the metrics that need it read ``n/a``.
* Install before the worker pool forks: forked workers inherit the
  wrappers. Timestamps are ``perf_counter_ns`` (``CLOCK_MONOTONIC`` on
  Linux), so spans of different processes share one time axis.
* Spans stay in memory. A pool worker appends its spans to
  ``<dir>/spans-<pid>.jsonl`` each time its outermost span ends; any
  other process calls :meth:`Tracer.write` itself.
* One shared byte switches recording on and off in every process forked
  from the installer, so a run can alternate traced and untraced
  operations and measure what tracing costs.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import mmap
import os
import sys
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

Note = Callable[[tuple, dict, Any, int], dict]


class Target(NamedTuple):
    """One wrapped attribute: where it lives and the span it records.

    ``note(args, kwargs, result, t0_ns)`` may attach counts measured at
    the call (cache hit, elements routed to a fallback, ...).
    """

    module: str
    attr: str
    span: str
    note: Note | None = None


class Span(NamedTuple):
    """One finished span. ``parent`` is the ``sid`` of the enclosing span
    in the same process and thread (``-1`` at the root)."""

    pid: int
    sid: int
    parent: int
    name: str
    t0: int
    t1: int
    tid: int
    note: dict | None


def _cache_hit(args: tuple, kwargs: dict, result: Any, t0: int) -> dict:
    return {"hit": result is not None}


def _elements(args: tuple, kwargs: dict, result: Any, t0: int) -> dict:
    return {"elems": int(getattr(result, "size", 0))}


def _queue_wait(args: tuple, kwargs: dict, result: Any, t0: int) -> dict:
    # GemmServer._compute_batch(self, key, jobs): each job was stamped
    # with time.monotonic() when the batcher took it; the executor thread
    # starts it at t0. Both read CLOCK_MONOTONIC.
    jobs = args[2]
    return {
        "jobs": len(jobs),
        "wait_ns": sum(t0 - int(job.enqueued * 1e9) for job in jobs),
    }


#: What the benchmark wraps. Span names are the layer names the metrics
#: use; several attributes may feed one span name.
TARGETS: tuple[Target, ...] = (
    Target("repro.types.quantize", "quantize", "quantize"),
    Target("repro.types.quantize", "quantize_complex", "quantize"),
    Target("repro.gemm.plan", "GemmPlan.build", "plan.split"),
    Target("repro.gemm.plan", "OperandSplit.build", "plan.split"),
    Target("repro.mxu.split_cache", "operand_digest", "split_cache.lookup"),
    Target("repro.mxu.split_cache", "SplitCache.get", "split_cache.lookup", _cache_hit),
    Target("repro.mxu.split_cache", "SplitCache.put", "split_cache.lookup"),
    Target("repro.gemm.tiled", "TiledGEMM.run", "tiled.driver"),
    Target("repro.mxu.m3xu", "M3XU.mma_parts", "m3xu.mma_parts"),
    Target("repro.mxu.fused", "accumulate_mma", "fused.accumulate", _elements),
    Target("repro.mxu.fused", "_fallback_windowed", "fused.fallback", _elements),
    Target("repro.arith.accumulator", "aligned_sum_groups", "accumulator.aligned_sum"),
    Target("repro.mxu.vectorized", "fp32_lane_fields", "vectorized.lane_fields"),
    Target("repro.mxu.vectorized", "chained_vector_fp32", "vectorized.chain"),
    Target("repro.arith.accumulator", "segmented_windowed_sum", "accumulator.segmented_sum"),
    Target("repro.arith.accumulator", "segmented_windowed_sum_f32", "accumulator.segmented_sum"),
    Target("repro.arith.accumulator", "int_window_to_float", "accumulator.window_to_float"),
    Target("repro.mxu.parallel_bitlevel", "sharded_bitlevel_gemm", "sharded"),
    Target("repro.mxu.parallel_bitlevel", "_chain_columns", "worker.task"),
    Target("repro.gemm.batched", "_batched_worker", "worker.task"),
    Target("repro.serve.server", "_exec_job", "worker.task"),
    Target("repro.parallel", "parallel_map", "parallel.map"),
    Target("repro.serve.server", "json.loads", "server.json_loads"),
    Target("repro.serve.server", "json.dumps", "server.json_dumps"),
    Target("repro.serve.server", "decode_array", "server.decode"),
    Target("repro.serve.server", "encode_array", "server.encode"),
    Target("repro.serve.server", "GemmServer._parse_payload", "server.parse"),
    Target("repro.serve.server", "GemmServer._compute_batch", "server.compute", _queue_wait),
)


#: Modules imported before installing, so that bindings made by lazily
#: imported consumers (the serving layer's fft path) exist to be replaced.
PRELOAD = ("repro", "repro.cli", "repro.serve", "repro.apps.fft", "repro.mxu.faults")


def worker_counters() -> dict[str, int]:
    """Counters a pool worker samples around each task."""
    from repro.parallel import arena_worker_info

    return {"arena_attaches": int(arena_worker_info()["attaches"])}


def repro_tracer(out_dir: str | os.PathLike[str], targets: Iterable[Target] = TARGETS) -> "Tracer":
    """A tracer installed over the loaded ``repro`` modules."""
    for name in PRELOAD:
        importlib.import_module(name)
    from repro.parallel import in_worker

    tracer = Tracer(out_dir, worker_check=in_worker, counters=worker_counters)
    tracer.install(targets)
    return tracer


def resolve_targets(targets: Iterable[Target] = TARGETS) -> tuple[list[Target], list[tuple[Target, str]]]:
    """Which targets a tracer would install in this checkout, and why the
    others are missing (installs into a throwaway tracer, then undoes it)."""
    probe = repro_tracer(os.devnull, targets)
    try:
        return list(probe.installed), list(probe.missing)
    finally:
        probe.uninstall()


class _ModuleProxy(types.SimpleNamespace):
    """Stands in for a module inside one importer; attributes it does not
    override are read from the real module."""

    def __init__(self, module: types.ModuleType) -> None:
        super().__init__()
        self._module = module

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    """Installs span wrappers and holds the spans of one process.

    ``out_dir`` receives worker span files and :meth:`write` output.
    ``worker_check`` tells whether the current process is a pool worker
    (those flush at the end of each outermost span); ``counters`` returns
    a flat dict of integers sampled around each worker task.
    """

    def __init__(
        self,
        out_dir: str | os.PathLike[str],
        worker_check: Callable[[], bool] = lambda: False,
        counters: Callable[[], dict[str, int]] | None = None,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.worker_check = worker_check
        self.counters = counters
        self.missing: list[tuple[Target, str]] = []
        self.installed: list[Target] = []
        self.spans: list[tuple] = []
        self._switch = mmap.mmap(-1, 1)
        self._switch[0] = 1
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench_span", default=-1
        )
        self._undo: list[tuple[Any, str, Any]] = []
        self._proxies: dict[tuple[str, str], _ModuleProxy] = {}
        os.register_at_fork(after_in_child=self._forked)

    # -- switching ------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self._switch[0])

    @enabled.setter
    def enabled(self, on: bool) -> None:
        # The byte lives in a shared anonymous mapping: forked workers
        # see the change at their next call.
        self._switch[0] = 1 if on else 0

    def _forked(self) -> None:
        # A child forked inside a span must not take it for its parent.
        self.spans = []
        self._current.set(-1)

    # -- installation ---------------------------------------------------
    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Wrap every target that exists; record the rest in ``missing``."""
        for target in targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing.append((target, f"{type(exc).__name__}: {exc}"))
            else:
                self.installed.append(target)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()
        self._proxies.clear()
        self.installed.clear()

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _install_one(self, t: Target) -> None:
        module = importlib.import_module(t.module)
        head, _, tail = t.attr.partition(".")
        owner = getattr(module, head)
        if not tail:
            wrapper = self.wrap(owner, t.span, t.note)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is owner:
                        self._set(mod, name, wrapper)
            return
        if isinstance(owner, type):
            raw = owner.__dict__[tail]
            if isinstance(raw, classmethod):
                self._set(owner, tail, classmethod(self.wrap(raw.__func__, t.span, t.note)))
            elif isinstance(raw, staticmethod):
                self._set(owner, tail, staticmethod(self.wrap(raw.__func__, t.span, t.note)))
            else:
                self._set(owner, tail, self.wrap(raw, t.span, t.note))
            return
        if isinstance(owner, (types.ModuleType, _ModuleProxy)):
            fn = getattr(owner, tail)
            proxy = self._proxies.get((t.module, head))
            if proxy is None:
                proxy = self._proxies[(t.module, head)] = _ModuleProxy(owner)
                self._set(module, head, proxy)
            setattr(proxy, tail, self.wrap(fn, t.span, t.note))
            return
        raise AttributeError(f"{t.module}.{head} is neither a class nor a module")

    # -- recording ------------------------------------------------------
    def wrap(self, fn: Callable, name: str, note: Note | None = None) -> Callable:
        """A wrapper recording span *name* around each call of *fn*."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer._switch[0]:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = tracer._current.get()
            worker_root = parent < 0 and tracer.worker_check()
            before = tracer.counters() if worker_root and tracer.counters is not None else None
            token = tracer._current.set(sid)
            result, ok = None, False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                tracer._current.reset(token)
                extra = note(args, kwargs, result, t0) if note is not None and ok else None
                tracer.spans.append(
                    (sid, parent, name, t0, t1, threading.get_ident(), extra)
                )
                if worker_root:
                    tracer._flush_worker(before)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, **note: Any) -> Iterator[None]:
        """Record a span around a block of benchmark code (an operation)."""
        if not self._switch[0]:
            yield
            return
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(
                (sid, parent, name, t0, t1, threading.get_ident(), note or None)
            )

    def _flush_worker(self, before: dict[str, int] | None) -> None:
        line: dict[str, Any] = {"pid": os.getpid(), "worker": True, "spans": self.spans}
        if before is not None and self.counters is not None:
            after = self.counters()
            line["counters"] = {k: after[k] - before.get(k, 0) for k in after}
        self._append(line)

    def write(self) -> None:
        """Append this process's spans to its span file."""
        self._append({"pid": os.getpid(), "worker": False, "spans": self.spans})

    def _append(self, line: dict[str, Any]) -> None:
        self.spans = []
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")

    def local_spans(self) -> list[Span]:
        """This process's spans held in memory."""
        pid = os.getpid()
        return [Span(pid, *s) for s in self.spans]


class SpanFiles(NamedTuple):
    """Everything the span files of one run hold."""

    spans: list[Span]
    worker_pids: set[int]
    counters: dict[int, dict[str, int]]


def read_span_files(out_dir: str | os.PathLike[str]) -> SpanFiles:
    """All spans in ``spans-*.jsonl``, which pids are pool workers, and
    the per-worker sums of counter deltas taken around each task."""
    out = SpanFiles([], set(), {})
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = json.loads(raw)
            pid = int(line["pid"])
            out.spans.extend(Span(pid, *s) for s in line["spans"])
            if line["worker"]:
                out.worker_pids.add(pid)
            sums = out.counters.setdefault(pid, {})
            for k, v in line.get("counters", {}).items():
                sums[k] = sums.get(k, 0) + int(v)
    return out


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: Iterable[Span]) -> dict[tuple[int, int], int]:
    """Self time per span ``(pid, sid)``: its duration minus the union of
    its children's intervals (clipped to the span)."""
    spans = list(spans)
    children: dict[tuple[int, int], list[tuple[int, int]]] = {}
    by_key = {(s.pid, s.sid): s for s in spans}
    for s in spans:
        if s.parent >= 0:
            children.setdefault((s.pid, s.parent), []).append((s.t0, s.t1))
    out = {}
    for key, s in by_key.items():
        kids = [
            (max(a, s.t0), min(b, s.t1))
            for a, b in children.get(key, ())
            if min(b, s.t1) > max(a, s.t0)
        ]
        out[key] = (s.t1 - s.t0) - _union_ns(kids)
    return out


def chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Spans as Chrome trace-event JSON (loads in Perfetto)."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": s.name,
                "ph": "X",
                "ts": s.t0 / 1e3,
                "dur": (s.t1 - s.t0) / 1e3,
                "pid": s.pid,
                "tid": s.tid,
                "args": s.note or {},
            }
            for s in spans
        ],
    }
