"""Per-layer metrics from the spans and counters of a traced run.

Span names come from :data:`bench.trace.TARGETS`. "Self" time is a
span's duration minus the part its child spans cover; "per op" divides
by the traced operations (GEMM calls or requests).
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

from bench.trace import Span, Target, self_times

#: Span names each per-layer metric reads. A metric that needs a span no
#: installed wrapper records reads n/a.
NEEDS: dict[str, tuple[str, ...]] = {
    "quantize.ms_per_op": ("quantize",),
    "plan.split_ms_per_op": ("plan.split",),
    "split_cache.hit_frac": ("split_cache.lookup",),
    "split_cache.lookup_ms_per_op": ("split_cache.lookup",),
    "tiled.driver_ms_per_op": ("tiled.driver",),
    "m3xu.mma_parts_ms_per_op": ("m3xu.mma_parts",),
    "fused.accumulate_ms_per_op": ("fused.accumulate",),
    "fused.fallback_frac": ("fused.accumulate", "fused.fallback"),
    "accumulator.aligned_sum_ms_per_op": ("accumulator.aligned_sum",),
    "vectorized.lane_fields_ms_per_op": ("vectorized.lane_fields",),
    "vectorized.chain_ms_per_op": ("vectorized.chain",),
    "accumulator.segmented_sum_ms_per_op": ("accumulator.segmented_sum",),
    "accumulator.window_to_float_ms_per_op": ("accumulator.window_to_float",),
    "sharded.self_ms_per_op": ("sharded",),
    "sharded.shard_skew": ("parallel.map", "worker.task"),
    "parallel.map_ms_per_op": ("parallel.map",),
    "parallel.worker_busy_ms_per_op": ("worker.task",),
    "parallel.overhead_ms_per_op": ("parallel.map", "worker.task"),
    "parallel.worker_util": ("parallel.map", "worker.task"),
    "server.json_loads_ms_per_req": ("server.json_loads",),
    "server.json_dumps_ms_per_req": ("server.json_dumps",),
    "server.decode_ms_per_req": ("server.decode",),
    "server.encode_ms_per_req": ("server.encode",),
    "server.compute_ms_per_req": ("server.compute",),
    "server.wait_ms_per_req": ("server.compute",),
}


@dataclass
class Aggregate:
    """Totals of one span name."""

    dur_ns: int = 0
    self_ns: int = 0
    notes: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def aggregate(spans: Iterable[Span]) -> dict[str, Aggregate]:
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, Aggregate] = defaultdict(Aggregate)
    for s in spans:
        agg = out[s.name]
        agg.dur_ns += s.t1 - s.t0
        agg.self_ns += own[(s.pid, s.sid)]
        for k, v in (s.note or {}).items():
            if isinstance(v, (int, float)):
                agg.notes[k] += float(v)
                agg.notes[k + "#"] += 1
    return out


def unavailable(installed: Iterable[Target], missing: Iterable[tuple[Target, str]]) -> dict[str, str]:
    """Metric -> reason, for metrics that need a span no installed
    wrapper records."""
    have = {t.span for t in installed}
    missing = list(missing)
    reasons = {}
    for metric, names in NEEDS.items():
        lost = [n for n in names if n not in have]
        if lost:
            where = ", ".join(f"{t.module}:{t.attr} ({why})" for t, why in missing if t.span in lost)
            reasons[metric] = f"no wrapper for {'/'.join(lost)}: {where}"
    return reasons


def parallel_breakdown(
    spans: list[Span], worker_pids: set[int], workers: int
) -> dict[str, float]:
    """Map time, task busy time, overhead and skew over every
    ``parallel_map`` call of the parent. A worker's outermost span
    belongs to the map whose interval holds its start; a map that ran
    serially holds its tasks as child spans."""
    maps = sorted(
        (s for s in spans if s.name == "parallel.map" and s.pid not in worker_pids),
        key=lambda s: s.t0,
    )
    roots = sorted(
        (s for s in spans if s.pid in worker_pids and s.parent < 0), key=lambda s: s.t0
    )
    inline: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for s in spans:
        if s.name == "worker.task" and s.pid not in worker_pids:
            inline[(s.pid, s.parent)].append(s)
    starts = [r.t0 for r in roots]
    map_ns = busy_ns = overhead_ns = 0
    skews: list[float] = []
    for m in maps:
        lo = bisect.bisect_left(starts, m.t0)
        hi = bisect.bisect_right(starts, m.t1)
        tasks = roots[lo:hi] + inline[(m.pid, m.sid)]
        per_pid: dict[int, int] = defaultdict(int)
        for r in tasks:
            per_pid[r.pid] += r.t1 - r.t0
        map_ns += m.t1 - m.t0
        busy_ns += sum(per_pid.values())
        overhead_ns += (m.t1 - m.t0) - max(per_pid.values(), default=0)
        if len(tasks) >= 2:
            durs = [r.t1 - r.t0 for r in tasks]
            skews.append(max(durs) / statistics.median(durs))
    return {
        "map_ns": map_ns,
        "busy_ns": busy_ns,
        "overhead_ns": overhead_ns,
        "skew": statistics.median(skews) if skews else 0.0,
        "util": busy_ns / (workers * map_ns) if map_ns else 0.0,
    }


def _delta(after: dict[str, Any], before: dict[str, Any], *path: str) -> float:
    a: Any = after
    b: Any = before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return float(a or 0) - float(b or 0)


def server_counters(before: dict[str, Any], after: dict[str, Any], requests: int, batchable: int) -> dict[str, float]:
    """Batcher, result cache, admission, degrade, pool and arena counters
    of the server, from two ``stats`` responses around the window."""
    b, a = before.get("result", {}), after.get("result", {})
    hits = _delta(a, b, "cache", "hits")
    misses = _delta(a, b, "cache", "misses")
    admitted = _delta(a, b, "admission", "admitted")
    rejected = _delta(a, b, "admission", "rejected_overload") + _delta(a, b, "admission", "rejected_queue")
    levels = {k: _delta(a, b, "degrade_counts", k) for k in a.get("degrade_counts", {})}
    flushes = _delta(a, b, "batcher", "flushes")
    retries = sum(_delta(a, b, "pool", k) for k in ("task_retries", "timeout_events", "broken_events"))
    return {
        "batcher.mean_batch": batchable / flushes if flushes else 0.0,
        "result_cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "admission.rejected_frac": rejected / (admitted + rejected) if admitted + rejected else 0.0,
        "degrade.nonnormal_frac": (
            sum(v for k, v in levels.items() if k != "0") / sum(levels.values())
            if sum(levels.values()) else 0.0
        ),
        "pool.retries_per_kop": 1000.0 * retries / requests if requests else 0.0,
        "arena.publishes_per_op": _delta(a, b, "pool", "arena", "publishes") / requests if requests else 0.0,
    }


def span_metrics(
    spans: list[Span], worker_pids: set[int], worker_counters: dict[int, dict[str, int]], ops: int, workers: int
) -> dict[str, float]:
    """Every per-layer metric the spans alone determine."""
    agg = aggregate(spans)
    par = parallel_breakdown(spans, worker_pids, workers)

    def per_op(ns: float) -> float:
        return ns / 1e6 / ops if ops else 0.0

    lookup = agg["split_cache.lookup"]
    accumulate = agg["fused.accumulate"].notes["elems"]
    compute = agg["server.compute"]
    return {
        "quantize.ms_per_op": per_op(agg["quantize"].self_ns),
        "plan.split_ms_per_op": per_op(agg["plan.split"].self_ns),
        "split_cache.hit_frac": (
            lookup.notes["hit"] / lookup.notes["hit#"] if lookup.notes["hit#"] else 0.0
        ),
        "split_cache.lookup_ms_per_op": per_op(lookup.self_ns),
        "tiled.driver_ms_per_op": per_op(agg["tiled.driver"].self_ns),
        "m3xu.mma_parts_ms_per_op": per_op(agg["m3xu.mma_parts"].self_ns),
        "fused.accumulate_ms_per_op": per_op(agg["fused.accumulate"].self_ns),
        "fused.fallback_frac": (
            agg["fused.fallback"].notes["elems"] / accumulate if accumulate else 0.0
        ),
        "accumulator.aligned_sum_ms_per_op": per_op(agg["accumulator.aligned_sum"].self_ns),
        "vectorized.lane_fields_ms_per_op": per_op(agg["vectorized.lane_fields"].self_ns),
        "vectorized.chain_ms_per_op": per_op(agg["vectorized.chain"].self_ns),
        "accumulator.segmented_sum_ms_per_op": per_op(agg["accumulator.segmented_sum"].self_ns),
        "accumulator.window_to_float_ms_per_op": per_op(agg["accumulator.window_to_float"].self_ns),
        "sharded.self_ms_per_op": per_op(agg["sharded"].self_ns),
        "sharded.shard_skew": par["skew"],
        "parallel.map_ms_per_op": per_op(par["map_ns"]),
        "parallel.worker_busy_ms_per_op": per_op(par["busy_ns"]),
        "parallel.overhead_ms_per_op": per_op(par["overhead_ns"]),
        "parallel.worker_util": par["util"],
        "arena.worker_attaches_per_op": (
            sum(c.get("arena_attaches", 0) for c in worker_counters.values()) / ops if ops else 0.0
        ),
        "server.json_loads_ms_per_req": per_op(agg["server.json_loads"].dur_ns),
        "server.json_dumps_ms_per_req": per_op(agg["server.json_dumps"].dur_ns),
        "server.decode_ms_per_req": per_op(agg["server.decode"].dur_ns),
        "server.encode_ms_per_req": per_op(agg["server.encode"].dur_ns),
        "server.parse_ms_per_req": per_op(agg["server.parse"].dur_ns),
        "server.compute_ms_per_req": per_op(compute.dur_ns),
        "server.wait_ms_per_req": (
            compute.notes["wait_ns"] / 1e6 / compute.notes["jobs"] if compute.notes["jobs"] else 0.0
        ),
    }


def coverage(spans: list[Span], root: str = "op") -> float:
    """Share of the root spans' wall time that their child spans cover."""
    own = self_times(spans)
    roots = [s for s in spans if s.name == root]
    total = sum(s.t1 - s.t0 for s in roots)
    inside = sum((s.t1 - s.t0) - own[(s.pid, s.sid)] for s in roots)
    return inside / total if total else 0.0
