"""Process-based parallel execution engine for the functional models.

The emulation workloads are embarrassingly parallel at three natural
grains: independent matrices of a batched GEMM, independent GEMM
implementations of an accuracy sweep, and independent experiments of the
full paper report. This module provides the one executor they all share.

Work is distributed with a :class:`concurrent.futures.ProcessPoolExecutor`
(numpy releases the GIL only inside BLAS; everything else in the emulator
is Python-driven, so threads do not help). The contract every caller
relies on:

* ``workers=1`` (the default) runs serially in-process — no executor, no
  pickling, byte-identical to the pre-parallel code path.
* ``workers=N`` splits the work into deterministic, ordered chunks and
  reassembles results in submission order, so outputs are identical for
  every worker count.
* The ``REPRO_WORKERS`` environment variable overrides the default for
  callers that do not pass an explicit worker count (``0`` or a negative
  value selects ``os.cpu_count()``).

Two throughput features sit on top of that contract, neither of which
changes a single output bit:

**Persistent worker pool.** The executor is created lazily on the first
parallel call and reused by every subsequent one, so batched GEMM loops,
``run_all`` and the accuracy sweeps stop paying process spawn + teardown
per call. :func:`shutdown` releases it explicitly (also registered with
``atexit``); a process that forks after the pool exists gets a fresh pool
of its own on first use (the inherited handle owns no worker processes).
Inside a pool worker, :func:`parallel_map` always runs serially: the
grains nest (``run_all`` dispatches accuracy studies that are themselves
parallel callers), and one level of process fan-out is all a machine has
cores for.

**Zero-copy operand transfer.** ndarrays of at least :data:`SHM_MIN_BYTES`
inside a work item are shipped through POSIX shared memory instead of
being pickled through the result pipes: the parent copies each array into
a :class:`multiprocessing.shared_memory.SharedMemory` segment once, the
worker maps it and hands ``fn`` an ndarray view of identical bytes. Small
payloads keep the plain pickle path. Values are byte-for-byte what the
serial path sees, so results remain bit-identical.

**Resilient execution.** ``parallel_map`` optionally runs under a
:class:`~repro.resilience.failures.RetryPolicy`: a per-task wall-clock
``timeout`` (hung workers are terminated and the pool respawned), bounded
``retries`` with exponential backoff + jitter, and automatic pool respawn
when a worker dies (``BrokenProcessPool``). Tasks that still fail after
every allowed attempt surface as structured
:class:`~repro.resilience.failures.TaskFailure` records — in place of
their results with ``return_failures=True``, or carried by a single
:class:`~repro.resilience.failures.ParallelTaskError` otherwise. The
policy defaults resolve from ``REPRO_TASK_TIMEOUT`` / ``REPRO_RETRIES`` /
``REPRO_RETRY_BACKOFF`` and are inert when unset, leaving the fast paths
bit-for-bit untouched; an ``on_result`` callback observes each completed
task (index, result) as soon as it is produced, which is what the
checkpoint journal hooks into.
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from collections import deque
from concurrent.futures import CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

from .resilience.failures import (
    ParallelTaskError,
    RetryPolicy,
    TaskFailure,
    resolve_policy,
)

__all__ = [
    "WORKERS_ENV",
    "SHM_MIN_BYTES",
    "ARENA_ENV",
    "ARENA_MAX_BYTES",
    "resolve_workers",
    "resolve_arena_max_bytes",
    "split_ranges",
    "parallel_map",
    "shutdown",
    "pool_info",
    "in_worker",
    "ArenaHandle",
    "arena_publish",
    "arena_pin",
    "arena_unpin",
    "arena_fetch",
    "arena_clear",
    "arena_info",
    "arena_worker_info",
    "ParallelTaskError",
    "TaskFailure",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Minimum ndarray payload (bytes) routed through shared memory.
SHM_MIN_BYTES = 1 << 20

#: Environment variable bounding the operand arena (bytes; ``<= 0`` disables).
ARENA_ENV = "REPRO_ARENA_MAX_BYTES"

#: Default operand-arena byte bound — parent registry and each worker's
#: attach LRU alike. 256 MiB holds dozens of serving-sized split planes.
ARENA_MAX_BYTES = 1 << 28

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(workers: int | None = None) -> int:
    """Resolve an effective worker count.

    Explicit ``workers`` wins; otherwise ``REPRO_WORKERS`` is consulted;
    otherwise 1 (serial). ``0`` or negative values select the machine's
    CPU count. An unparseable ``REPRO_WORKERS`` value warns and falls
    back to serial.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            warnings.warn(
                f"{WORKERS_ENV}={raw!r} is not an integer; running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            return 1
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def resolve_arena_max_bytes(limit: int | None = None) -> int:
    """Effective operand-arena byte bound (``0`` disables the arena).

    Explicit ``limit`` wins; otherwise ``REPRO_ARENA_MAX_BYTES`` is
    consulted; otherwise :data:`ARENA_MAX_BYTES`. Negative values
    disable the arena; an unparseable environment override warns and
    falls back to the default, mirroring ``REPRO_WORKERS``.
    """
    if limit is None:
        raw = os.environ.get(ARENA_ENV, "").strip()
        if not raw:
            return ARENA_MAX_BYTES
        try:
            limit = int(raw)
        except ValueError:
            warnings.warn(
                f"{ARENA_ENV}={raw!r} is not an integer; using the default "
                f"({ARENA_MAX_BYTES} bytes)",
                RuntimeWarning,
                stacklevel=2,
            )
            return ARENA_MAX_BYTES
    return max(0, int(limit))


def split_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most *parts* contiguous ``(start, stop)``
    ranges of near-equal size (deterministic, order-preserving)."""
    if n <= 0:
        return []
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


# ----------------------------------------------------------------------
# Persistent pool lifecycle
# ----------------------------------------------------------------------
_pool: ProcessPoolExecutor | None = None
_pool_workers: int = 0
_pool_pid: int = -1
_pool_spawns: int = 0

# Health counters (monotonic per process). They feed the serving layer's
# circuit breaker (:mod:`repro.serve.degrade`): a run of consecutive
# broken-pool / timeout events is the signal that the pool — not any one
# request — is sick. ``_pool_failure_streak`` counts events since the
# last successful pool round-trip; successes reset it.
_broken_events: int = 0
_timeout_events: int = 0
_task_retries: int = 0
_pool_failure_streak: int = 0


def _note_pool_event(kind: str) -> None:
    """Record one pool-health event (``"broken"`` | ``"timeout"`` |
    ``"retry"`` | ``"ok"``) in the process-wide counters."""
    global _broken_events, _timeout_events, _task_retries, _pool_failure_streak
    if kind == "broken":
        _broken_events += 1
        _pool_failure_streak += 1
    elif kind == "timeout":
        _timeout_events += 1
        _pool_failure_streak += 1
    elif kind == "retry":
        _task_retries += 1
    elif kind == "ok":
        _pool_failure_streak = 0

#: True inside a pool worker process. Nested ``parallel_map`` calls there
#: run serially: a task that fans out again (``run_all`` dispatching an
#: accuracy study which itself consults ``REPRO_WORKERS``) would otherwise
#: fork a grandchild pool from a forked worker, which deadlocks on the
#: executor queues inherited mid-operation.
_in_worker = False


def _mark_worker() -> None:
    """Executor initializer: flag this process as a pool worker."""
    global _in_worker
    _in_worker = True


def in_worker() -> bool:
    """True inside a pool worker process. Callers that would otherwise
    fan out (and publish operands to the arena) collapse to the serial
    in-process path there — nested parallelism never touches the pool or
    the arena."""
    return _in_worker


def _get_pool(n_workers: int) -> ProcessPoolExecutor:
    """The shared executor, (re)created lazily.

    A pool is discarded (without joining — the workers are not ours) when
    this process turns out to be a fork of the pool's creator, and
    replaced when a caller needs more workers than it holds. A wider pool
    serves narrower requests as-is: ``Executor.map`` output order does
    not depend on how many workers drain the queue.
    """
    global _pool, _pool_workers, _pool_pid, _pool_spawns
    if _pool is not None and _pool_pid != os.getpid():
        _pool = None
    if _pool is not None and _pool_workers < n_workers:
        _pool.shutdown(wait=True)
        _pool = None
    if _pool is None:
        # Start the shared-memory resource tracker *before* forking the
        # workers. Forked workers then inherit it, so a worker attaching
        # a segment (per-call transport or arena) registers into the
        # parent's tracker — a set-level no-op — instead of spawning a
        # private tracker that would warn about (and try to reap)
        # segments the parent still owns.
        resource_tracker.ensure_running()
        _pool = ProcessPoolExecutor(max_workers=n_workers, initializer=_mark_worker)
        _pool_workers = n_workers
        _pool_pid = os.getpid()
        _pool_spawns += 1
    return _pool


def shutdown(wait: bool = True) -> None:
    """Release the persistent pool and the operand arena (no-op when
    neither is live).

    Safe to call at any time; the next :func:`parallel_map` that needs an
    executor simply creates a fresh one, and the next publisher repopulates
    the arena. Every arena segment is unlinked — pinned or not — so a
    clean shutdown leaks nothing into ``/dev/shm``. Registered with
    ``atexit``.
    """
    global _pool
    if _pool is not None and _pool_pid == os.getpid():
        _pool.shutdown(wait=wait)
    _pool = None
    arena_clear(force=True)


atexit.register(shutdown)


def _terminate_pool() -> None:
    """Forcibly retire the persistent pool, killing its workers.

    Used by the resilient path when a task exceeds its deadline: a hung
    worker cannot be cancelled through the executor API, so its process
    is terminated outright and the executor discarded. The next
    :func:`_get_pool` call respawns a clean pool.
    """
    global _pool
    if _pool is not None and _pool_pid == os.getpid():
        pool = _pool
        _pool = None
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            # repro: allow[RH403] terminating an already-dead worker
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        # repro: allow[RH403] last-resort teardown of a broken executor
        except Exception:  # pragma: no cover - broken executor teardown
            pass
    else:
        _pool = None
    # Respawn boundary: retire unpinned arena segments. Pinned entries
    # (an in-flight call's operands) survive so retried tasks can still
    # attach by name from the fresh pool's workers.
    arena_clear(force=False)


def pool_info() -> dict[str, Any]:
    """Introspection for tests, benchmarks and the serving layer: pool
    liveness, width, how many executors this process has created, and the
    health counters (broken-pool events, per-task timeouts, retries, and
    the consecutive-failure streak since the last healthy round-trip)."""
    alive = _pool is not None and _pool_pid == os.getpid()
    return {
        "alive": alive,
        "workers": _pool_workers if alive else 0,
        "spawns": _pool_spawns,
        "broken_events": _broken_events,
        "timeout_events": _timeout_events,
        "task_retries": _task_retries,
        "failure_streak": _pool_failure_streak,
        "arena": arena_info(),
    }


# ----------------------------------------------------------------------
# Zero-copy operand transfer
# ----------------------------------------------------------------------
class _ShmRef:
    """Pickle-friendly handle to an ndarray parked in shared memory."""

    __slots__ = ("name", "shape", "dtype_str")

    def __init__(self, name: str, shape: tuple[int, ...], dtype_str: str):
        self.name = name
        self.shape = shape
        self.dtype_str = dtype_str

    def __getstate__(self) -> tuple[str, tuple[int, ...], str]:
        return (self.name, self.shape, self.dtype_str)

    def __setstate__(self, state: tuple[str, tuple[int, ...], str]) -> None:
        self.name, self.shape, self.dtype_str = state


def _attach_readonly(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without adopting ownership of it.

    The parent creates and unlinks every segment. On Python >= 3.13
    ``track=False`` keeps the attach out of resource tracking entirely.
    Older versions register on attach — but pool workers share the
    parent's resource-tracker process, where the name is already
    registered, so the duplicate add is a no-op and the parent's
    ``unlink`` retires the registration exactly once. (Unregistering by
    hand here would strip the *parent's* entry and make that unlink
    KeyError inside the tracker.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        return shared_memory.SharedMemory(name=name)


def _encode_item(obj: Any, segments: list) -> Any:
    """Replace ndarrays of at least :data:`SHM_MIN_BYTES` in *obj* with
    shared-memory refs.

    Walks tuples/lists/dicts; anything else passes through to pickle.
    Created segments are appended to *segments* for the caller to
    release once results are in.
    """
    if (
        isinstance(obj, np.ndarray)
        and obj.dtype != object
        and obj.nbytes >= SHM_MIN_BYTES
    ):
        seg = shared_memory.SharedMemory(create=True, size=obj.nbytes)
        np.ndarray(obj.shape, dtype=obj.dtype, buffer=seg.buf)[...] = obj
        segments.append(seg)
        return _ShmRef(seg.name, obj.shape, obj.dtype.str)
    if isinstance(obj, tuple):
        return tuple(_encode_item(o, segments) for o in obj)
    if isinstance(obj, list):
        return [_encode_item(o, segments) for o in obj]
    if isinstance(obj, dict):
        return {k: _encode_item(v, segments) for k, v in obj.items()}
    return obj


def _decode_item(obj: Any, attached: list) -> Any:
    """Inverse of :func:`_encode_item`, mapping refs to ndarray views."""
    if isinstance(obj, _ShmRef):
        seg = _attach_readonly(obj.name)
        attached.append(seg)
        return np.ndarray(obj.shape, dtype=np.dtype(obj.dtype_str), buffer=seg.buf)
    if isinstance(obj, tuple):
        return tuple(_decode_item(o, attached) for o in obj)
    if isinstance(obj, list):
        return [_decode_item(o, attached) for o in obj]
    if isinstance(obj, dict):
        return {k: _decode_item(v, attached) for k, v in obj.items()}
    return obj


def _detach_result(obj: Any, attached: list) -> Any:
    """Copy any part of a result that aliases a mapped segment.

    The segment is unmapped before the result is pickled back, so a
    view escaping through the return value must be materialised first.
    """
    if isinstance(obj, np.ndarray):
        views = [
            np.ndarray(seg.size, dtype=np.uint8, buffer=seg.buf) for seg in attached
        ]
        if any(np.shares_memory(obj, v) for v in views):
            return obj.copy()
        return obj
    if isinstance(obj, tuple):
        return tuple(_detach_result(o, attached) for o in obj)
    if isinstance(obj, list):
        return [_detach_result(o, attached) for o in obj]
    if isinstance(obj, dict):
        return {k: _detach_result(v, attached) for k, v in obj.items()}
    return obj


class _ShmTask:
    """Worker-side callable: decode the item, run ``fn``, unmap."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        attached: list = []
        try:
            out = self.fn(_decode_item(item, attached))
            return _detach_result(out, attached)
        finally:
            for seg in attached:
                seg.close()


def _release(segments: list) -> None:
    for seg in segments:
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass


# ----------------------------------------------------------------------
# Operand arena: content-addressed shared-memory segments
# ----------------------------------------------------------------------
# The per-call transport above copies every large operand into a fresh
# segment per parallel_map invocation. The arena is the complement for
# operands that *recur* — a serving weight matrix, the repeated A of a
# batched sweep: the parent publishes the operand's pre-split planes
# once under their content digest, task payloads carry a pickled
# :class:`ArenaHandle` (a name plus a plane manifest) instead of arrays,
# and each worker keeps a digest -> segment LRU so a repeated operand is
# mapped once per worker, not copied once per task.
#
# Ownership is the transport's parent-creates/parent-unlinks discipline:
# entries are refcounted (publishers pin around their parallel_map),
# evicted only at refcount zero when the byte bound needs the room,
# unlinked wholesale on :func:`shutdown` and (unpinned only) on a pool
# respawn. Content addressing makes stale worker mappings harmless: the
# same digest always names the same bytes, and a segment stays mapped
# (POSIX keeps unlinked memory alive) until the worker LRU drops it.


class ArenaHandle:
    """Pickle-friendly content address of planes parked in the arena.

    ``planes`` maps the segment layout: ``(name, shape, dtype str,
    byte offset)`` per plane, offsets 64-byte aligned.
    """

    __slots__ = ("key", "name", "planes")

    def __init__(
        self,
        key: str,
        name: str,
        planes: tuple[tuple[str, tuple[int, ...], str, int], ...],
    ):
        self.key = key
        self.name = name
        self.planes = planes

    def __getstate__(self) -> tuple:
        return (self.key, self.name, self.planes)

    def __setstate__(self, state: tuple) -> None:
        self.key, self.name, self.planes = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaHandle({self.key!r}, {self.name!r}, {len(self.planes)} planes)"


class _ArenaEntry:
    __slots__ = ("seg", "handle", "nbytes", "refs")

    def __init__(
        self, seg: shared_memory.SharedMemory, handle: ArenaHandle, nbytes: int
    ):
        self.seg = seg
        self.handle = handle
        self.nbytes = nbytes
        self.refs = 0


# Parent-side registry (publisher process). Keyed by content digest;
# insertion order is the LRU order.
_arena: "dict[str, _ArenaEntry]" = {}
_arena_pid: int = -1
_arena_bytes: int = 0
_arena_publishes: int = 0
_arena_reuses: int = 0
_arena_evictions: int = 0
_arena_unlinks: int = 0

# Worker-side attach LRU (per process).
_worker_arena: "dict[str, tuple[shared_memory.SharedMemory, dict[str, np.ndarray], int]]" = {}
_worker_arena_bytes: int = 0
_worker_attaches: int = 0
_worker_hits: int = 0
_worker_evictions: int = 0


def _arena_reset_if_forked() -> None:
    """Drop a registry inherited across a fork without unlinking.

    The segments belong to the forking parent — it unlinks them; the
    child merely forgets its references and starts an arena of its own.
    """
    global _arena_pid, _arena_bytes  # repro: allow[FS304] fork-local reset by design
    if _arena_pid != os.getpid():
        _arena.clear()  # repro: allow[FS304] child forgets the parent's refs
        _arena_bytes = 0
        _arena_pid = os.getpid()


def _arena_views(
    seg: shared_memory.SharedMemory, handle: ArenaHandle
) -> dict[str, np.ndarray]:
    """Read-only ndarray views of one segment's planes."""
    out: dict[str, np.ndarray] = {}
    for name, shape, dtype_str, offset in handle.planes:
        arr = np.ndarray(
            shape, dtype=np.dtype(dtype_str), buffer=seg.buf, offset=offset
        )
        arr.flags.writeable = False
        out[name] = arr
    return out


def _arena_drop(key: str, unlink: bool) -> None:
    global _arena_bytes, _arena_unlinks  # repro: allow[FS304] parent-side only
    entry = _arena.pop(key)  # repro: allow[FS304] parent-side registry
    _arena_bytes -= entry.nbytes
    entry.seg.close()
    if unlink:
        try:
            entry.seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
        _arena_unlinks += 1


def arena_publish(key: str, planes: dict[str, np.ndarray]) -> ArenaHandle | None:
    """Publish *planes* once under content address *key*.

    Returns the (existing or new) :class:`ArenaHandle`, or ``None`` when
    the arena is disabled (``REPRO_ARENA_MAX_BYTES <= 0``), the planes
    exceed the whole byte bound, or the caller is a pool worker (nested
    calls never touch the arena) — callers fall back to shipping arrays.
    Publishing evicts least-recently-used unpinned entries as needed.
    """
    # repro: allow[FS304] worker-guarded: the _in_worker test below
    # returns before any mutation when called from a pool worker.
    global _arena_bytes, _arena_publishes, _arena_reuses, _arena_evictions
    limit = resolve_arena_max_bytes()
    if limit <= 0 or _in_worker:
        return None
    _arena_reset_if_forked()
    entry = _arena.get(key)
    if entry is not None:
        # Re-insertion refreshes LRU position (parent-side only).
        _arena.pop(key)  # repro: allow[FS304] worker-guarded
        _arena[key] = entry  # repro: allow[FS304] worker-guarded
        _arena_reuses += 1
        return entry.handle

    layout: list[tuple[str, np.ndarray, int]] = []
    offset = 0
    for name, arr in planes.items():
        arr = np.ascontiguousarray(arr)
        layout.append((name, arr, offset))
        offset += -(-arr.nbytes // 64) * 64
    total = max(offset, 1)
    if total > limit:
        return None
    for old_key in [
        k for k, e in _arena.items() if e.refs <= 0
    ]:
        if _arena_bytes + total <= limit:
            break
        _arena_drop(old_key, unlink=True)
        _arena_evictions += 1
    if _arena_bytes + total > limit:
        # Pinned entries hold the remaining bytes: the bound is hard, so
        # the caller falls back to shipping arrays for this dispatch.
        return None
    seg = shared_memory.SharedMemory(create=True, size=total)
    for name, arr, off in layout:
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=off)[...] = arr
    handle = ArenaHandle(
        key, seg.name, tuple((n, a.shape, a.dtype.str, o) for n, a, o in layout)
    )
    _arena[key] = _ArenaEntry(seg, handle, total)  # repro: allow[FS304] worker-guarded
    _arena_bytes += total
    _arena_publishes += 1
    return handle


def arena_pin(handle: ArenaHandle) -> None:
    """Guard *handle*'s segment against eviction (publisher-side).

    Publishers pin around the ``parallel_map`` that ships the handle and
    unpin in a ``finally`` — a pinned entry survives pool respawns and
    byte-bound pressure, so retried tasks can always re-attach.
    """
    if _arena_pid == os.getpid():
        entry = _arena.get(handle.key)
        if entry is not None:
            entry.refs += 1


def arena_unpin(handle: ArenaHandle) -> None:
    """Release one :func:`arena_pin` on *handle*."""
    if _arena_pid == os.getpid():
        entry = _arena.get(handle.key)
        if entry is not None and entry.refs > 0:
            entry.refs -= 1


def arena_fetch(handle: ArenaHandle) -> dict[str, np.ndarray]:
    """Resolve *handle* to read-only plane views of identical bytes.

    In the publisher process this reads the registry directly (no extra
    mapping); in a pool worker it attaches the named segment lazily and
    caches the mapping in the per-process LRU, evicting older segments
    past ``REPRO_ARENA_MAX_BYTES``. Raises ``KeyError`` for an unlinked
    (stale) handle — the resilient path retries after a republish.
    """
    if _in_worker:
        return _worker_fetch(handle)
    _arena_reset_if_forked()
    entry = _arena.get(handle.key)
    if entry is None:
        raise KeyError(f"arena entry {handle.key!r} is not published")
    _arena.pop(handle.key)  # repro: allow[FS304] parent branch: LRU refresh
    _arena[handle.key] = entry  # repro: allow[FS304] parent branch: LRU refresh
    return _arena_views(entry.seg, handle)


def _worker_fetch(handle: ArenaHandle) -> dict[str, np.ndarray]:
    # repro: allow[FS304] per-worker attach LRU by design: a miss
    # re-attaches the same published bytes, so every view is identical
    # at every worker count — only the attach/hit counters diverge.
    global _worker_arena_bytes, _worker_attaches, _worker_hits, _worker_evictions
    hit = _worker_arena.get(handle.key)
    if hit is not None:
        _worker_arena.pop(handle.key)  # repro: allow[FS304] worker-local LRU
        _worker_arena[handle.key] = hit  # repro: allow[FS304] worker-local LRU
        _worker_hits += 1
        return hit[1]
    seg = _attach_readonly(handle.name)
    views = _arena_views(seg, handle)
    _worker_arena[handle.key] = (seg, views, seg.size)  # repro: allow[FS304] worker-local LRU
    _worker_arena_bytes += seg.size
    _worker_attaches += 1
    limit = resolve_arena_max_bytes()
    # Never evict the segment just fetched: its views are live for the
    # duration of the current task, and closing a mapped segment would
    # invalidate them mid-chain.
    for key in [k for k in _worker_arena if k != handle.key]:
        if _worker_arena_bytes <= limit:
            break
        old_seg, _, old_bytes = _worker_arena.pop(key)  # repro: allow[FS304] worker-local LRU
        _worker_arena_bytes -= old_bytes
        old_seg.close()
        _worker_evictions += 1
    return views


def arena_clear(force: bool = False) -> None:
    """Unlink arena segments (all of them with ``force``, else only the
    unpinned). Worker-side mappings stay valid until their LRU drops
    them — POSIX keeps unlinked segments alive while mapped."""
    global _arena_bytes
    if _arena_pid != os.getpid():
        # Forked copy: the references are not ours to unlink.
        _arena.clear()
        _arena_bytes = 0
        return
    for key in list(_arena):
        if force or _arena[key].refs <= 0:
            _arena_drop(key, unlink=True)


def arena_info() -> dict[str, Any]:
    """Publisher-side arena introspection (also in ``pool_info()``)."""
    live = _arena_pid == os.getpid()
    return {
        "entries": len(_arena) if live else 0,
        "bytes": _arena_bytes if live else 0,
        "pinned": sum(1 for e in _arena.values() if e.refs > 0) if live else 0,
        "segments": sorted(e.handle.name for e in _arena.values()) if live else [],
        "limit": resolve_arena_max_bytes(),
        "publishes": _arena_publishes,
        "reuses": _arena_reuses,
        "evictions": _arena_evictions,
        "unlinks": _arena_unlinks,
    }


def arena_worker_info() -> dict[str, Any]:
    """This process's attach-side counters (meaningful inside workers;
    ship it through ``parallel_map`` to probe the pool)."""
    return {
        "in_worker": _in_worker,
        "entries": len(_worker_arena),
        "bytes": _worker_arena_bytes,
        "attaches": _worker_attaches,
        "hits": _worker_hits,
        "evictions": _worker_evictions,
    }


def _arena_probe(_item: Any) -> dict[str, Any]:
    """Module-level (pickleable) task fn returning the executing
    process's :func:`arena_worker_info` — test/benchmark support."""
    return arena_worker_info()


# ----------------------------------------------------------------------
# Failure bookkeeping
# ----------------------------------------------------------------------
def _annotate(exc: BaseException, index: int) -> None:
    """Name the failing task on the exception (PEP 678 note) so a raise
    escaping ``parallel_map`` identifies *which* item is responsible
    without wrapping — the original exception type must survive."""
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        try:
            add_note(f"[repro.parallel] task {index} failed in parallel_map")
        except TypeError:  # pragma: no cover - exotic exception classes
            pass


def _serial_plain(
    fn: Callable[[_T], _R],
    work: Sequence[_T],
    on_result: Callable[[int, Any], None] | None,
) -> list[_R]:
    """The pre-resilience serial path, plus annotation + streaming."""
    results: list[_R] = []
    for i, item in enumerate(work):
        try:
            out = fn(item)
        except Exception as exc:
            _annotate(exc, i)
            raise
        results.append(out)
        if on_result is not None:
            on_result(i, out)
    return results


def _serial_resilient(
    fn: Callable[[_T], _R],
    work: Sequence[_T],
    policy: RetryPolicy,
    on_result: Callable[[int, Any], None] | None,
    return_failures: bool,
) -> list[Any]:
    """In-process retry loop (used at ``workers=1`` and inside pool
    workers, where a wall-clock deadline cannot be enforced)."""
    results: list[Any] = [None] * len(work)
    failures: list[TaskFailure] = []
    rng = policy.jitter_rng()
    for i, item in enumerate(work):
        attempt = 0
        while True:
            attempt += 1
            try:
                out = fn(item)
            except Exception as exc:
                if attempt <= policy.retries:
                    time.sleep(policy.delay(attempt, rng))
                    continue
                _annotate(exc, i)
                failure = TaskFailure.from_exception(i, attempt, exc)
                if return_failures:
                    results[i] = failure
                    failures.append(failure)
                    break
                raise ParallelTaskError([failure]) from exc
            results[i] = out
            if on_result is not None:
                on_result(i, out)
            break
    return results


def _resilient_map(
    call: Callable[[Any], Any],
    payload: Sequence[Any],
    n_workers: int,
    policy: RetryPolicy,
    on_result: Callable[[int, Any], None] | None,
    return_failures: bool,
) -> list[Any]:
    """Pool execution with per-task deadline, retry, and pool respawn.

    Work is dispatched in rounds of at most ``n_workers`` single-task
    submissions, so every task in a round starts (almost) immediately and
    one ``wait(timeout)`` bounds each task's wall clock. A round that
    times out terminates the hung workers and respawns the pool; a worker
    death (``BrokenProcessPool``) likewise retires the executor. Either
    way the affected tasks are retried until their attempt budget runs
    out, then recorded as :class:`TaskFailure`.
    """
    n = len(payload)
    results: list[Any] = [None] * n
    attempts = [0] * n
    failures: dict[int, TaskFailure] = {}
    queue: deque[int] = deque(range(n))
    retry_delay: dict[int, float] = {}
    rng = policy.jitter_rng()

    def account(index: int, cause: str, exc: BaseException | None) -> None:
        attempts[index] += 1
        if cause == "broken-pool":
            _note_pool_event("broken")
        elif cause == "timeout":
            _note_pool_event("timeout")
        if attempts[index] <= policy.retries:
            _note_pool_event("retry")
            queue.append(index)
            retry_delay[index] = policy.delay(attempts[index], rng)
        elif exc is not None:
            failures[index] = TaskFailure.from_exception(index, attempts[index], exc)
        else:
            failures[index] = TaskFailure(
                index=index, attempts=attempts[index], cause=cause
            )

    while queue:
        batch = [queue.popleft() for _ in range(min(len(queue), n_workers))]
        pause = max((retry_delay.pop(i, 0.0) for i in batch), default=0.0)
        if pause > 0.0:
            time.sleep(pause)
        pool_broken = False
        futures: dict[Any, int] = {}
        try:
            pool = _get_pool(n_workers)
            for i in batch:
                futures[pool.submit(call, payload[i])] = i
        except BrokenProcessPool:
            pool_broken = True
            submitted = set(futures.values())
            for i in batch:
                if i not in submitted:
                    account(i, "broken-pool", None)
        finished, hung = wait(futures, timeout=policy.timeout)
        for future in finished:
            i = futures[future]
            try:
                out = future.result()
            except (BrokenProcessPool, CancelledError):
                pool_broken = True
                account(i, "broken-pool", None)
            except Exception as exc:
                account(i, "exception", exc)
            else:
                results[i] = out
                _note_pool_event("ok")
                if on_result is not None:
                    on_result(i, out)
        if hung:
            # Deadline exceeded: the workers running these tasks are
            # stuck in user code and cannot be cancelled — kill them.
            for future in hung:
                account(futures[future], "timeout", None)
            _terminate_pool()
        elif pool_broken:
            _terminate_pool()

    if failures:
        ordered = [failures[i] for i in sorted(failures)]
        if not return_failures:
            raise ParallelTaskError(ordered)
        for failure in ordered:
            results[failure.index] = failure
    return results


# ----------------------------------------------------------------------
# The one entry point
# ----------------------------------------------------------------------
def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    return_failures: bool = False,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[_R]:
    """Map *fn* over *items*, preserving order.

    Serial for ``workers <= 1`` (or a single item), and always serial
    when called from inside a pool worker — nested parallelism collapses
    to the (bit-identical) serial path instead of forking pools from
    forked workers. Otherwise fans out over the persistent process pool
    with chunked work units. *fn* and
    the items must be picklable in the parallel case (module-level
    functions and plain data/numpy arrays are). ndarrays of at least
    :data:`SHM_MIN_BYTES` travel via shared memory instead of pickle.

    Resilience (all optional; defaults resolve from the environment and
    are inert when unset — see :func:`repro.resilience.resolve_policy`):

    ``timeout``
        Per-task wall-clock budget in seconds. Enforced through the
        process pool (hung workers are terminated, the pool respawned),
        so a timeout routes execution through the pool even at
        ``workers=1``. Not enforceable inside a nested (in-worker) call.
    ``retries``
        Extra attempts per failed/timed-out/pool-crashed task, with
        exponential backoff + jitter between rounds.
    ``return_failures``
        Return terminal :class:`TaskFailure` records in place of the
        failed tasks' results instead of raising
        :class:`ParallelTaskError`.
    ``on_result``
        ``on_result(index, result)`` observes every completed task as
        soon as its result is available (the checkpoint journal hook).

    When the resolved policy is active, work is dispatched one task per
    submission (no chunking) so failures are attributed to exact items;
    the inert-policy fast paths are unchanged down to the last bit.
    """
    work: Sequence[_T] = list(items)
    if not work:
        return []
    n_workers = resolve_workers(workers)
    policy = resolve_policy(timeout, retries, backoff)
    resilient = policy.active or return_failures

    if _in_worker:
        if resilient:
            return _serial_resilient(fn, work, policy, on_result, return_failures)
        return _serial_plain(fn, work, on_result)
    if not resilient and (n_workers <= 1 or len(work) <= 1):
        return _serial_plain(fn, work, on_result)
    if resilient and policy.timeout is None and (n_workers <= 1 or len(work) <= 1):
        return _serial_resilient(fn, work, policy, on_result, return_failures)
    n_workers = max(1, min(n_workers, len(work)))
    if chunk_size is None:
        # ~4 chunks per worker bounds both scheduling overhead and tail
        # imbalance without tuning per workload.
        chunk_size = max(1, -(-len(work) // (n_workers * 4)))

    segments: list = []
    payload: Sequence[Any] = work
    call: Callable[[Any], _R] = fn
    try:
        encoded = [_encode_item(item, segments) for item in work]
        if segments:  # only wrap when something actually moved to shm
            payload, call = encoded, _ShmTask(fn)
        if resilient:
            return _resilient_map(
                call, payload, n_workers, policy, on_result, return_failures
            )
        try:
            pool = _get_pool(n_workers)
            out = _drain(pool.map(call, payload, chunksize=chunk_size), on_result)
            _note_pool_event("ok")
            return out
        except BrokenProcessPool:
            # A dead worker poisons the whole executor: drop it so the
            # next call starts from a clean pool, then let callers see
            # the failure.
            _note_pool_event("broken")
            shutdown(wait=False)
            raise
    finally:
        _release(segments)


def _drain(
    result_iter: Iterable[_R], on_result: Callable[[int, Any], None] | None
) -> list[_R]:
    """Collect ``Executor.map`` output in order, streaming to *on_result*
    and naming the failing task when the iterator raises."""
    results: list[_R] = []
    try:
        for out in result_iter:
            results.append(out)
            if on_result is not None:
                on_result(len(results) - 1, out)
    except BrokenProcessPool:
        raise
    except Exception as exc:
        _annotate(exc, len(results))
        raise
    return results
