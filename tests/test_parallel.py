"""The parallel engine: pool lifecycle, shm transfer, failure semantics."""

from __future__ import annotations

import hashlib
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import parallel
from repro.parallel import (
    SHM_MIN_BYTES,
    ParallelTaskError,
    TaskFailure,
    parallel_map,
    pool_info,
    resolve_workers,
    shutdown,
    split_ranges,
)


# ---- module-level (picklable) worker functions -----------------------
def _double(x):
    return 2 * x


def _boom(x):
    if x == 2:
        raise KeyError("worker failure on item 2")
    return x


def _flaky(item):
    """Fails the first *fail_times* attempts for its index, then succeeds.
    Attempt counts persist in files so they survive worker boundaries."""
    root, x, fail_times = item
    marker = pathlib.Path(root) / f"attempts-{x}"
    seen = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(seen + 1))
    if seen < fail_times:
        raise ValueError(f"transient failure on item {x} (attempt {seen + 1})")
    return 10 * x


def _hang(item):
    x, hang_index = item
    if x == hang_index:
        time.sleep(60.0)
    return x


def _die_once(item):
    """Kills its worker process outright on the first attempt."""
    root, x = item
    marker = pathlib.Path(root) / f"died-{x}"
    if x == 1 and not marker.exists():
        marker.write_text("1")
        os._exit(17)
    return x


def _sum_arrays(item):
    a, tag, b = item
    return float(a.sum() + b.sum()), tag


def _identity_array(a):
    return a


def _psm_names():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _segments_seen(item):
    """A task's index, a digest of its array, and the shared-memory
    segments that exist while it runs."""
    index, a = item
    return index, hashlib.sha256(a.tobytes()).hexdigest(), _psm_names()


def _alive(pid):
    """True while *pid* runs (a zombie awaiting its reaper counts as gone)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


#: A process that dispatches four long tasks, each carrying its own
#: 2 MiB operand, to two pool workers. Each task marks its worker's pid
#: in the directory given as argv[1] once it runs.
_DISPATCHER = """
import os, sys, time
import numpy as np
from repro.parallel import parallel_map

def task(item):
    root, a = item
    open(os.path.join(root, f"worker-{os.getpid()}"), "w").close()
    time.sleep(60)
    return float(a[0])

if __name__ == "__main__":
    arrays = [np.full(1 << 18, float(i)) for i in range(4)]
    parallel_map(task, [(sys.argv[1], a) for a in arrays], workers=2)
"""


def _nested_fanout(x):
    """A task that is itself a parallel caller (a served job's tiled GEMM)."""
    import os

    before = parallel.pool_info()["spawns"]
    inner = parallel_map(_double, [x, x + 1, x + 2], workers=2)
    spawned = parallel.pool_info()["spawns"] - before
    return os.getpid(), spawned, inner


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    shutdown()
    yield
    shutdown()


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_bad_env_warns_and_serialises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        with pytest.warns(RuntimeWarning, match="not-a-number"):
            assert resolve_workers() == 1

    def test_zero_selects_cpu_count(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)


@pytest.fixture
def shm_64(monkeypatch):
    """Route every ndarray of 64 bytes or more through shared memory."""
    monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)


class TestResolveShmThreshold:
    def test_default(self):
        # 1 MiB: large operands ride shared memory, small ones pickle.
        assert SHM_MIN_BYTES == 1 << 20


class TestOrderingAndDeterminism:
    def test_matches_serial(self):
        items = list(range(23))
        assert parallel_map(_double, items, workers=3) == [_double(i) for i in items]

    def test_chunk1_more_workers_than_items(self):
        items = [5, 1, 4]
        got = parallel_map(_double, items, workers=8)
        assert got == [10, 2, 8]

    def test_single_item_stays_serial(self):
        before = pool_info()["spawns"]
        assert parallel_map(_double, [21], workers=4) == [42]
        assert pool_info()["spawns"] == before  # no executor for one item

    def test_empty(self):
        assert parallel_map(_double, [], workers=4) == []


class TestFailureSemantics:
    def test_original_exception_type_propagates(self):
        with pytest.raises(KeyError, match="worker failure on item 2"):
            parallel_map(_boom, [0, 1, 2, 3], workers=2)

    def test_pool_survives_worker_exception(self):
        with pytest.raises(KeyError):
            parallel_map(_boom, [0, 2], workers=2)
        # The executor is not poisoned by a raising task: same pool,
        # next call succeeds.
        assert parallel_map(_double, [1, 2, 3], workers=2) == [2, 4, 6]


class TestPersistentPool:
    def test_pool_reused_across_calls(self):
        parallel_map(_double, [1, 2, 3, 4], workers=2)
        spawns = pool_info()["spawns"]
        for _ in range(3):
            parallel_map(_double, [1, 2, 3, 4], workers=2)
        assert pool_info()["spawns"] == spawns
        assert pool_info()["alive"]

    def test_wider_request_grows_pool(self):
        parallel_map(_double, [1, 2], workers=2)
        assert pool_info()["workers"] == 2
        parallel_map(_double, [1, 2, 3, 4], workers=4)
        assert pool_info()["workers"] == 4
        # narrower request reuses the wide pool
        spawns = pool_info()["spawns"]
        parallel_map(_double, [1, 2], workers=2)
        assert pool_info()["spawns"] == spawns and pool_info()["workers"] == 4

    def test_shutdown_releases_and_recreates(self):
        parallel_map(_double, [1, 2], workers=2)
        assert pool_info()["alive"]
        shutdown()
        assert not pool_info()["alive"]
        assert parallel_map(_double, [1, 2], workers=2) == [2, 4]
        assert pool_info()["alive"]

    def test_nested_parallel_map_runs_serial_in_worker(self):
        # A task that fans out again must NOT fork a pool inside the pool
        # worker (that deadlocks on executor queues inherited mid-use).
        # The inner call collapses to the serial path: same results, and
        # zero executors ever created in the worker process.
        results = parallel_map(_nested_fanout, [10, 20], workers=2)
        assert [r[2] for r in results] == [[20, 22, 24], [40, 42, 44]]
        import os

        for pid, spawned_in_worker, _ in results:
            assert pid != os.getpid()
            assert spawned_in_worker == 0


class TestSharedMemoryTransfer:
    def test_shm_results_match_pickle_results(self, rng, monkeypatch):
        a = rng.normal(size=(64, 64))
        b = rng.normal(size=(64, 64))
        items = [(a + i, f"tag{i}", b - i) for i in range(4)]
        serial = [_sum_arrays(it) for it in items]
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 64)
        via_shm = parallel_map(_sum_arrays, items, workers=2)
        monkeypatch.setattr(parallel, "SHM_MIN_BYTES", 1 << 62)
        via_pickle = parallel_map(_sum_arrays, items, workers=2)
        assert via_shm == serial == via_pickle

    def test_shm_bit_identical_payload(self, rng, shm_64):
        # The worker echoes the array back: every byte must survive the
        # shm round trip (including a result that aliases the segment,
        # which the engine must copy out before the segment unmaps).
        a = rng.normal(size=(32, 33))
        (echo,) = parallel_map(_identity_array, [a, a * 0], workers=2)[:1]
        assert echo.tobytes() == a.tobytes()

    @pytest.mark.skipif(not __import__("os").path.isdir("/dev/shm"),
                        reason="POSIX shm filesystem not visible")
    def test_segments_released(self, rng, shm_64):
        import os

        a = rng.normal(size=(64, 64))
        before = set(os.listdir("/dev/shm"))
        parallel_map(
            _sum_arrays,
            [(a, "x", a), (a, "y", a)],
            workers=2,
        )
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="POSIX shm filesystem not visible")
    def test_one_segment_per_distinct_array(self, rng):
        a = rng.normal(size=(512, 512))  # 2 MiB
        assert a.nbytes >= SHM_MIN_BYTES
        before = _psm_names()
        publishes = pool_info()["arena"]["publishes"]
        got = parallel_map(_segments_seen, [(i, a) for i in range(4)], workers=2)
        assert pool_info()["arena"]["publishes"] == publishes + 1
        assert len(set().union(*(names for _, _, names in got)) - before) == 1
        digest = hashlib.sha256(a.tobytes()).hexdigest()
        assert [(i, d) for i, d, _ in got] == [(i, digest) for i in range(4)]
        assert _psm_names() - before == set()

    def test_small_payloads_skip_shm(self, rng):
        a = rng.normal(size=(4, 4))  # far below the default threshold
        got = parallel_map(_identity_array, [a, a + 1], workers=2)
        assert got[0].tobytes() == a.tobytes()


@pytest.mark.skipif(
    not (os.path.isdir("/dev/shm") and os.path.isdir("/proc")),
    reason="needs the POSIX shm filesystem and /proc",
)
def test_killed_parent_leaves_no_worker_or_segment(tmp_path):
    script = tmp_path / "dispatcher.py"
    script.write_text(_DISPATCHER)
    src = str(pathlib.Path(parallel.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    before = _psm_names()
    workers: list[int] = []
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
    try:
        deadline = time.monotonic() + 60.0
        while len(workers) < 2:
            assert proc.poll() is None, (tmp_path / "stderr.txt").read_text()
            assert time.monotonic() < deadline, "the tasks never started"
            time.sleep(0.05)
            workers = [int(p.name[7:]) for p in tmp_path.glob("worker-*")]
        created = _psm_names() - before
        assert len(created) == 4
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)
        deadline = time.monotonic() + 20.0
        while any(_alive(pid) for pid in workers) or created & _psm_names():
            assert time.monotonic() < deadline, (
                f"alive workers: {[pid for pid in workers if _alive(pid)]}, "
                f"segments left: {sorted(created & _psm_names())}"
            )
            time.sleep(0.1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


class TestResilientExecution:
    """Retry / timeout / structured-failure semantics (v3)."""

    def test_retries_recover_transient_failures(self, tmp_path):
        items = [(str(tmp_path), x, 2 if x == 2 else 0) for x in range(4)]
        got = parallel_map(_flaky, items, workers=2, retries=3, backoff=0.0)
        assert got == [0, 10, 20, 30]
        # item 2 was attempted exactly 3 times (2 failures + 1 success)
        assert (tmp_path / "attempts-2").read_text() == "3"

    def test_retries_recover_serially_too(self, tmp_path):
        items = [(str(tmp_path), x, 1 if x == 1 else 0) for x in range(3)]
        before = pool_info()["spawns"]
        got = parallel_map(_flaky, items, workers=1, retries=2, backoff=0.0)
        assert got == [0, 10, 20]
        assert pool_info()["spawns"] == before  # stayed in-process

    def test_exhausted_retries_raise_structured_error(self, tmp_path):
        items = [(str(tmp_path), x, 99) for x in range(3)]
        with pytest.raises(ParallelTaskError) as err:
            parallel_map(_flaky, items, workers=2, retries=1, backoff=0.0)
        failures = err.value.failures
        assert sorted(f.index for f in failures) == [0, 1, 2]
        assert all(f.attempts == 2 for f in failures)
        assert all(f.cause == "exception" for f in failures)
        assert all(f.error_type == "ValueError" for f in failures)

    def test_return_failures_in_place_of_results(self, tmp_path):
        items = [(str(tmp_path), x, 99 if x == 1 else 0) for x in range(3)]
        got = parallel_map(
            _flaky, items, workers=2, retries=0, return_failures=True
        )
        assert got[0] == 0 and got[2] == 20
        failure = got[1]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 1 and failure.attempts == 1
        assert "transient failure on item 1" in failure.message

    def test_timeout_abandons_hung_task(self):
        start = time.monotonic()
        got = parallel_map(
            _hang,
            [(x, 1) for x in range(3)],
            workers=2,
            timeout=1.0,
            return_failures=True,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # nowhere near the 60 s sleep
        assert got[0] == 0 and got[2] == 2
        assert isinstance(got[1], TaskFailure) and got[1].cause == "timeout"
        # the pool was respawned and is immediately usable
        assert parallel_map(_double, [1, 2, 3], workers=2) == [2, 4, 6]

    def test_worker_death_respawns_pool_and_retries(self, tmp_path):
        items = [(str(tmp_path), x) for x in range(3)]
        got = parallel_map(_die_once, items, workers=2, retries=2, backoff=0.0)
        assert got == [0, 1, 2]
        assert (tmp_path / "died-1").exists()

    def test_worker_death_without_retries_is_structured(self, tmp_path):
        items = [(str(tmp_path), x) for x in range(3)]
        got = parallel_map(_die_once, items, workers=2, return_failures=True)
        dead = [f for f in got if isinstance(f, TaskFailure)]
        assert dead and all(f.cause == "broken-pool" for f in dead)
        # pool recovered for the next caller
        assert parallel_map(_double, [4], workers=2) == [8]

    def test_shm_segments_released_on_failure(self, rng, tmp_path, shm_64):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shm filesystem not visible")
        a = rng.normal(size=(64, 64))
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(KeyError, match="worker failure on item 2"):
            parallel_map(_boom, [0, 1, 2, 3], workers=2)
        # failure path must not orphan segments either
        items = [(str(tmp_path), x, 99 if x == 1 else 0, a)[:3] for x in range(3)]
        with pytest.raises(ParallelTaskError):
            parallel_map(_flaky, items, workers=2, retries=1, backoff=0.0)
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_inert_policy_keeps_fast_path(self):
        # one Executor.map over every task, not one submit per task
        got = parallel_map(_double, list(range(20)), workers=2)
        assert got == [2 * x for x in range(20)]

    def test_retry_schedule_deterministic_across_pool_respawn(self, tmp_path):
        """A seeded RetryPolicy replays the same backoff schedule before
        and after a BrokenProcessPool recovery — the jitter RNG lives in
        the parent and must not be perturbed by worker death/respawn."""
        from repro.resilience.failures import RetryPolicy

        policy = RetryPolicy(retries=4, backoff=0.25, seed=13)
        before = policy.schedule()
        # Kill a worker mid-map: the pool respawns and the task retries.
        items = [(str(tmp_path), x) for x in range(3)]
        assert parallel_map(_die_once, items, workers=2, retries=2,
                            backoff=0.0) == [0, 1, 2]
        assert (tmp_path / "died-1").exists()  # the death really happened
        after = policy.schedule()
        assert after == before
        # And a fresh policy with the same seed replays it too.
        assert RetryPolicy(retries=4, backoff=0.25, seed=13).schedule() == before

    def test_pool_health_counters_track_events(self, tmp_path):
        before = pool_info()
        items = [(str(tmp_path), x) for x in range(3)]
        parallel_map(_die_once, items, workers=2, retries=2, backoff=0.0)
        after = pool_info()
        assert after["broken_events"] >= before["broken_events"] + 1
        assert after["task_retries"] >= before["task_retries"] + 1
        assert after["failure_streak"] == 0  # the retry succeeded

        got = parallel_map(_hang, [(1, 1)], workers=1, timeout=0.5,
                           return_failures=True)
        assert isinstance(got[0], TaskFailure)
        assert pool_info()["timeout_events"] >= after["timeout_events"] + 1
        assert pool_info()["failure_streak"] >= 1


class TestSplitRanges:
    def test_partition(self):
        for n in (1, 5, 16, 17):
            for parts in (1, 2, 4, 32):
                rs = split_ranges(n, parts)
                assert rs[0][0] == 0 and rs[-1][1] == n
                assert all(lo < hi for lo, hi in rs)
                assert all(rs[i][1] == rs[i + 1][0] for i in range(len(rs) - 1))

    def test_empty(self):
        assert split_ranges(0, 4) == []
