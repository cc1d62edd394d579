"""Span recording, self time, wrapper installation and n/a reporting."""

from __future__ import annotations

import os
import sys
import types

from bench import layers
from bench.trace import Span, Target, Tracer, read_span_files, self_times


def _span(sid, parent, t0, t1, name="x"):
    return Span(1, sid, parent, name, t0, t1, 0, None)


def test_self_time_subtracts_union_of_children():
    # root [0, 100) with overlapping children [10, 40) and [30, 50), one
    # grandchild [12, 20) inside the first child, and a child reaching
    # past the root's end [90, 120).
    spans = [
        _span(0, -1, 0, 100),
        _span(1, 0, 10, 40),
        _span(2, 0, 30, 50),
        _span(3, 1, 12, 20),
        _span(4, 0, 90, 120),
    ]
    own = self_times(spans)
    assert own[(1, 0)] == 100 - (40 + 10)  # [10, 50) and [90, 100)
    assert own[(1, 1)] == 30 - 8
    assert own[(1, 2)] == 20
    assert own[(1, 3)] == 8
    assert own[(1, 4)] == 30


def test_self_time_keeps_processes_apart():
    spans = [Span(1, 0, -1, "a", 0, 10, 0, None), Span(2, 1, 0, "b", 0, 10, 0, None)]
    own = self_times(spans)
    assert own[(1, 0)] == 10  # pid 2's span names parent 0 of pid 2, not pid 1


def _fake_module():
    mod = types.ModuleType("repro._bench_fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    class Box:
        def get(self, key):
            return None if key == "miss" else key

    mod.leaf, mod.outer, mod.Box = leaf, outer, Box
    return mod


def test_wrappers_record_nested_spans_and_notes(tmp_path):
    mod = _fake_module()
    sys.modules[mod.__name__] = mod
    other = types.ModuleType("repro._bench_alias")
    other.leaf = mod.leaf  # a consumer that did `from fake import leaf`
    sys.modules[other.__name__] = other
    tracer = Tracer(tmp_path)
    try:
        tracer.install([
            Target(mod.__name__, "leaf", "leaf"),
            Target(mod.__name__, "outer", "outer"),
            Target(mod.__name__, "Box.get", "get", lambda a, k, r, t0: {"hit": r is not None}),
        ])
        assert other.leaf is mod.leaf  # both bindings replaced
        with tracer.span("op"):
            assert mod.outer(1) == 4
            assert other.leaf(1) == 2
            mod.Box().get("miss")
            mod.Box().get("k")
        tracer.enabled = False
        mod.outer(1)  # not recorded
        spans = tracer.local_spans()
        names = sorted(s.name for s in spans)
        assert names == ["get", "get", "leaf", "leaf", "op", "outer"]
        by_name = {s.name: s for s in spans}
        assert by_name["outer"].parent == by_name["op"].sid
        leaf_parents = {s.parent for s in spans if s.name == "leaf"}
        assert leaf_parents == {by_name["outer"].sid, by_name["op"].sid}
        agg = layers.aggregate(spans)
        assert agg["get"].notes["hit"] == 1 and agg["get"].notes["hit#"] == 2
        assert layers.coverage(spans) > 0
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__], sys.modules[other.__name__]
    assert mod.Box.get.__name__ == "get" and not hasattr(mod.Box.get, "__wrapped__")


def test_worker_forked_inside_a_span_flushes_its_own_outermost_spans(tmp_path):
    mod = _fake_module()
    sys.modules[mod.__name__] = mod
    parent_pid = os.getpid()
    tracer = Tracer(tmp_path, worker_check=lambda: os.getpid() != parent_pid)
    try:
        tracer.install([Target(mod.__name__, "leaf", "leaf")])
        with tracer.span("op"):
            pid = os.fork()
            if pid == 0:
                try:
                    mod.leaf(1)
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    files = read_span_files(tmp_path)
    assert files.worker_pids == {pid}
    assert [(s.name, s.parent) for s in files.spans] == [("leaf", -1)]
    assert [s.name for s in tracer.local_spans()] == ["op"]


def test_missing_target_is_skipped_and_reported_na(tmp_path):
    mod = _fake_module()
    sys.modules[mod.__name__] = mod
    tracer = Tracer(tmp_path)
    try:
        tracer.install([
            Target(mod.__name__, "leaf", "quantize"),
            Target(mod.__name__, "renamed_away", "plan.split"),
            Target("repro._no_such_module", "f", "vectorized.chain"),
        ])
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    assert [t.attr for t, _ in tracer.missing] == ["renamed_away", "f"]
    na = layers.unavailable([Target(mod.__name__, "leaf", "quantize")], tracer.missing)
    assert "plan.split_ms_per_op" in na and "renamed_away" in na["plan.split_ms_per_op"]
    assert "vectorized.chain_ms_per_op" in na
    assert "quantize.ms_per_op" not in na


def test_parallel_breakdown_assigns_worker_tasks_to_maps():
    spans = [
        Span(1, 0, -1, "parallel.map", 0, 100, 0, None),
        Span(2, 0, -1, "worker.task", 10, 60, 0, None),
        Span(2, 1, -1, "worker.task", 60, 90, 0, None),
        Span(3, 0, -1, "worker.task", 10, 50, 0, None),
    ]
    out = layers.parallel_breakdown(spans, worker_pids={2, 3}, workers=2)
    assert out["map_ns"] == 100
    assert out["busy_ns"] == 120
    assert out["overhead_ns"] == 100 - 80  # pid 2 is the critical path
    assert out["util"] == 120 / 200
    assert out["skew"] == 50 / 40


def test_parallel_breakdown_counts_tasks_of_a_serial_map():
    spans = [
        Span(1, 0, -1, "parallel.map", 0, 100, 0, None),
        Span(1, 1, 0, "worker.task", 5, 95, 0, None),
    ]
    out = layers.parallel_breakdown(spans, worker_pids=set(), workers=1)
    assert (out["busy_ns"], out["overhead_ns"], out["util"]) == (90, 10, 0.9)
