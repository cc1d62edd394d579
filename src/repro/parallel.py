"""Process-based parallel execution engine for the functional models.

Two callers leave the process through it: the tiled GEMM driver, whose
column blocks of a large GEMM are independent, and the serving layer,
whose batched jobs are. This module provides the one executor they
share.

Work is distributed with a :class:`concurrent.futures.ProcessPoolExecutor`
(numpy releases the GIL only inside BLAS; everything else in the emulator
is Python-driven, so threads do not help). The contract every caller
relies on:

* ``workers=1`` (the default) runs serially in-process — no executor, no
  pickling, byte-identical to the pre-parallel code path.
* ``workers=N`` submits one task per work item and reassembles results
  in submission order, so outputs are identical for every worker count.
* The ``REPRO_WORKERS`` environment variable overrides the default for
  callers that do not pass an explicit worker count (``0`` or a negative
  value selects ``os.cpu_count()``).

Two throughput features sit on top of that contract, neither of which
changes a single output bit:

**Persistent worker pool.** The executor is created lazily on the first
parallel call and reused by every subsequent one, so GEMM fan-outs and
served batches stop paying process spawn + teardown per call.
:func:`shutdown` releases it explicitly (also registered with
``atexit``); a process that forks after the pool exists gets a fresh pool
of its own on first use (the inherited handle owns no worker processes).
Inside a pool worker, :func:`parallel_map` always runs serially: the
callers nest (a served job runs a tiled GEMM, which is itself a parallel
caller), and one level of process fan-out is all a machine has cores
for.

**Zero-copy operand transfer.** ndarrays of at least :data:`SHM_MIN_BYTES`
inside a work item are shipped through POSIX shared memory instead of
being pickled through the result pipes: the parent copies each distinct
array into one :class:`multiprocessing.shared_memory.SharedMemory`
segment per call, shared by every item that carries it, the worker maps
it and hands ``fn`` an ndarray view of identical bytes, and the parent
unlinks the segment when the call returns. Smaller payloads pickle.
Values are byte-for-byte what the serial path sees, so results remain
bit-identical. Workers exit when the process that owns the pool dies, so
a killed parent leaves no worker (or segment) behind.

**Resilient execution.** ``parallel_map`` optionally runs under a
:class:`~repro.resilience.failures.RetryPolicy`: a per-task wall-clock
``timeout`` (hung workers are terminated and the pool respawned), bounded
``retries`` with exponential backoff + jitter, and automatic pool respawn
when a worker dies (``BrokenProcessPool``). Tasks that still fail after
every allowed attempt surface as structured
:class:`~repro.resilience.failures.TaskFailure` records — in place of
their results with ``return_failures=True``, or carried by a single
:class:`~repro.resilience.failures.ParallelTaskError` otherwise. The
policy is inert unless a call asks for it, leaving the fast paths
bit-for-bit untouched.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import os
import threading
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
    "resolve_workers",
    "split_ranges",
    "parallel_map",
    "shutdown",
    "pool_info",
    "in_worker",
    "arena_worker_info",
    "ParallelTaskError",
    "TaskFailure",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Minimum ndarray payload (bytes) routed through shared memory.
SHM_MIN_BYTES = 1 << 20

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
#: run serially: a task that fans out again (a served job whose tiled GEMM
#: consults ``REPRO_WORKERS``) would otherwise fork a grandchild pool from
#: a forked worker, which deadlocks on the executor queues inherited
#: mid-operation.
_in_worker = False


def _mark_worker() -> None:
    """Executor initializer: flag this process as a pool worker, and
    exit it when the process that owns the pool dies.

    A worker of a killed parent would otherwise run its task to the end.
    It also holds the resource tracker's pipe open, and the tracker
    unlinks a dead parent's shared-memory segments only once every
    holder of that pipe has exited.
    """
    global _in_worker
    _in_worker = True
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True
        ).start()


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent's sentinel is ready (the parent exited),
    then end this worker at once."""
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def in_worker() -> bool:
    """True inside a pool worker process. Callers that would otherwise
    fan out collapse to the serial in-process path there — nested
    parallelism never touches the pool."""
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
        # a segment registers into the parent's tracker — a set-level
        # no-op — instead of spawning a private tracker that would warn
        # about (and try to reap) segments the parent still owns.
        resource_tracker.ensure_running()
        _pool = ProcessPoolExecutor(max_workers=n_workers, initializer=_mark_worker)
        _pool_workers = n_workers
        _pool_pid = os.getpid()
        _pool_spawns += 1
    return _pool


def shutdown(wait: bool = True) -> None:
    """Release the persistent pool (no-op when none is live).

    Safe to call at any time; the next :func:`parallel_map` that needs an
    executor simply creates a fresh one. Registered with ``atexit``.
    """
    global _pool
    if _pool is not None and _pool_pid == os.getpid():
        _pool.shutdown(wait=wait)
    _pool = None


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


def pool_info() -> dict[str, Any]:
    """Introspection for tests, benchmarks and the serving layer: pool
    liveness, width, how many executors this process has created, the
    health counters (broken-pool events, per-task timeouts, retries, and
    the consecutive-failure streak since the last healthy round-trip),
    and ``arena.publishes``, the shared-memory segments the transport
    has created."""
    alive = _pool is not None and _pool_pid == os.getpid()
    return {
        "alive": alive,
        "workers": _pool_workers if alive else 0,
        "spawns": _pool_spawns,
        "broken_events": _broken_events,
        "timeout_events": _timeout_events,
        "task_retries": _task_retries,
        "failure_streak": _pool_failure_streak,
        "arena": {"publishes": _shm_publishes},
    }


# ----------------------------------------------------------------------
# Zero-copy operand transfer
# ----------------------------------------------------------------------
# Transport counters, reported under the "arena" name the benchmark
# reads: segments this process created, and segments it mapped as a
# pool worker.
_shm_publishes: int = 0
_worker_attaches: int = 0


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


#: One call's segments, keyed by the ``id`` of the array each one holds.
_Segments = dict[int, shared_memory.SharedMemory]


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


def _walk(obj: Any, leaf: Callable[[Any], Any]) -> Any:
    """Rebuild the tuples, lists and dicts of *obj* with *leaf* applied
    to everything else."""
    if isinstance(obj, tuple):
        return tuple(_walk(o, leaf) for o in obj)
    if isinstance(obj, list):
        return [_walk(o, leaf) for o in obj]
    if isinstance(obj, dict):
        return {k: _walk(v, leaf) for k, v in obj.items()}
    return leaf(obj)


def _encode_items(work: Sequence[Any], segments: _Segments) -> list[Any]:
    """Replace ndarrays of at least :data:`SHM_MIN_BYTES` in *work* with
    shared-memory refs, one segment per distinct array.

    Every item that carries the same array object shares its segment.
    No other array can take an ``id`` key during the call, because
    *work* keeps each one alive. Created segments land in *segments*
    for the caller to release once results are in.
    """

    def leaf(obj: Any) -> Any:
        global _shm_publishes
        if not (
            isinstance(obj, np.ndarray)
            and obj.dtype != object
            and obj.nbytes >= SHM_MIN_BYTES
        ):
            return obj
        seg = segments.get(id(obj))
        if seg is None:
            seg = shared_memory.SharedMemory(create=True, size=obj.nbytes)
            segments[id(obj)] = seg
            _shm_publishes += 1
            np.ndarray(obj.shape, dtype=obj.dtype, buffer=seg.buf)[...] = obj
        return _ShmRef(seg.name, obj.shape, obj.dtype.str)

    return [_walk(item, leaf) for item in work]


class _ShmTask:
    """Worker-side callable: map the item's segments, run ``fn``, unmap."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        attached: dict[str, shared_memory.SharedMemory] = {}

        def view(obj: Any) -> Any:
            global _worker_attaches
            if not isinstance(obj, _ShmRef):
                return obj
            seg = attached.get(obj.name)
            if seg is None:
                seg = attached[obj.name] = _attach_readonly(obj.name)
                _worker_attaches += 1
            return np.ndarray(obj.shape, dtype=np.dtype(obj.dtype_str), buffer=seg.buf)

        def detach(obj: Any) -> Any:
            # The segments are unmapped before the result is pickled
            # back, so a view escaping through it is copied first.
            if isinstance(obj, np.ndarray) and any(
                np.shares_memory(obj, np.ndarray(seg.size, dtype=np.uint8, buffer=seg.buf))
                for seg in attached.values()
            ):
                return obj.copy()
            return obj

        try:
            return _walk(self.fn(_walk(item, view)), detach)
        finally:
            for seg in attached.values():
                seg.close()


def _release(segments: _Segments) -> None:
    for seg in segments.values():
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass


def arena_worker_info() -> dict[str, int]:
    """This process's transport counter: ``attaches``, the segments it
    mapped as a pool worker (ship it through ``parallel_map`` to probe
    the pool)."""
    return {"attaches": _worker_attaches}


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


def _serial_plain(fn: Callable[[_T], _R], work: Sequence[_T]) -> list[_R]:
    """The pre-resilience serial path, plus annotation."""
    results: list[_R] = []
    for i, item in enumerate(work):
        try:
            out = fn(item)
        except Exception as exc:
            _annotate(exc, i)
            raise
        results.append(out)
    return results


def _serial_resilient(
    fn: Callable[[_T], _R],
    work: Sequence[_T],
    policy: RetryPolicy,
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
            break
    return results


def _resilient_map(
    call: Callable[[Any], Any],
    payload: Sequence[Any],
    n_workers: int,
    policy: RetryPolicy,
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
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    return_failures: bool = False,
) -> list[_R]:
    """Map *fn* over *items*, preserving order.

    Serial for ``workers <= 1`` (or a single item), and always serial
    when called from inside a pool worker — nested parallelism collapses
    to the (bit-identical) serial path instead of forking pools from
    forked workers. Otherwise fans out over the persistent process pool,
    one task per item. *fn* and the items must be picklable in the
    parallel case (module-level functions and plain data/numpy arrays
    are). ndarrays of at least :data:`SHM_MIN_BYTES` travel via shared
    memory instead of pickle, one segment per distinct array per call.

    Resilience (all optional and inert when unset — see
    :func:`repro.resilience.resolve_policy`):

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

    When the resolved policy is active, each task is submitted on its own
    so failures are attributed to exact items; the inert-policy fast
    path maps the same tasks in one ``Executor.map`` call.
    """
    work: Sequence[_T] = list(items)
    if not work:
        return []
    n_workers = resolve_workers(workers)
    policy = resolve_policy(timeout, retries, backoff)
    resilient = policy.active or return_failures

    if _in_worker:
        if resilient:
            return _serial_resilient(fn, work, policy, return_failures)
        return _serial_plain(fn, work)
    if not resilient and (n_workers <= 1 or len(work) <= 1):
        return _serial_plain(fn, work)
    if resilient and policy.timeout is None and (n_workers <= 1 or len(work) <= 1):
        return _serial_resilient(fn, work, policy, return_failures)
    n_workers = max(1, min(n_workers, len(work)))

    segments: _Segments = {}
    payload: Sequence[Any] = work
    call: Callable[[Any], _R] = fn
    try:
        encoded = _encode_items(work, segments)
        if segments:  # only wrap when something actually moved to shm
            payload, call = encoded, _ShmTask(fn)
        if resilient:
            return _resilient_map(call, payload, n_workers, policy, return_failures)
        try:
            pool = _get_pool(n_workers)
            out = _drain(pool.map(call, payload))
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


def _drain(result_iter: Iterable[_R]) -> list[_R]:
    """Collect ``Executor.map`` output in order, naming the failing task
    when the iterator raises."""
    results: list[_R] = []
    try:
        for out in result_iter:
            results.append(out)
    except BrokenProcessPool:
        raise
    except Exception as exc:
        _annotate(exc, len(results))
        raise
    return results
