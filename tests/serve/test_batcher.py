"""Group commit: grouping, flush order, caps, bit-exactness."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.serve.batcher import Batcher, BatchKey, PendingJob

KEY_A = BatchKey(op="gemm", m=8, k=8, n=8, level=0, abft=False)
KEY_B = BatchKey(op="gemm", m=16, k=8, n=8, level=0, abft=False)


def _job(key: BatchKey, i: int) -> PendingJob:
    loop = asyncio.get_running_loop()
    return PendingJob(key, {"i": i}, loop.create_future(),
                      deadline=time.monotonic() + 10.0)


class TestBatcher:
    def test_full_bucket_flushes_immediately(self):
        async def main():
            flushed: list[tuple[BatchKey, int]] = []

            async def cb(key, jobs):
                flushed.append((key, len(jobs)))
                for job in jobs:
                    job.future.set_result(job.payload["i"])

            batcher = Batcher(cb, max_batch=3)
            jobs = [_job(KEY_A, i) for i in range(3)]
            for job in jobs:
                batcher.submit(job)
            results = await asyncio.gather(*(j.future for j in jobs))
            assert results == [0, 1, 2]
            assert flushed == [(KEY_A, 3)]
            assert batcher.coalesced == 3

        asyncio.run(main())

    def test_lone_job_on_idle_batcher_flushes_without_a_timer(self):
        async def main():
            flushed = []

            async def cb(key, jobs):
                flushed.append(len(jobs))
                for job in jobs:
                    job.future.set_result(None)

            loop = asyncio.get_running_loop()
            timers = []
            call_later = loop.call_later

            def counting_call_later(*args, **kwargs):
                timers.append(args)
                return call_later(*args, **kwargs)

            loop.call_later = counting_call_later
            batcher = Batcher(cb)
            job = _job(KEY_A, 0)
            batcher.submit(job)
            for _ in range(3):
                await asyncio.sleep(0)
            assert flushed == [1]
            assert job.future.done()
            assert timers == []

        asyncio.run(main())

    def test_jobs_arriving_during_a_flush_leave_as_the_next_round(self):
        async def main():
            release = asyncio.Event()
            flushed: list[tuple[BatchKey, list[int]]] = []

            async def cb(key, jobs):
                flushed.append((key, [job.payload["i"] for job in jobs]))
                if jobs[0].payload["i"] == 0:
                    await release.wait()  # the executor is busy
                for job in jobs:
                    job.future.set_result(None)

            batcher = Batcher(cb, max_batch=3)
            first = _job(KEY_A, 0)
            batcher.submit(first)
            while not flushed:
                await asyncio.sleep(0)
            keys = [KEY_A, KEY_B, KEY_A, KEY_A, KEY_A, KEY_B]
            later = [_job(key, i) for i, key in enumerate(keys, start=1)]
            for job in later:
                batcher.submit(job)
            for _ in range(5):
                await asyncio.sleep(0)
            assert flushed == [(KEY_A, [0])]
            assert batcher.pending() == len(later)
            release.set()
            await asyncio.gather(*(job.future for job in [first, *later]))
            # Groups leave in order of their first job; A is cut at the cap.
            assert flushed == [
                (KEY_A, [0]), (KEY_A, [1, 3, 4]), (KEY_B, [2, 6]), (KEY_A, [5]),
            ]
            assert max(len(ids) for _, ids in flushed) <= batcher.max_batch
            assert (batcher.flushes, batcher.coalesced) == (4, 5)

        asyncio.run(main())

    def test_jobs_that_run_alone_are_not_counted_as_flushes(self):
        async def main():
            async def cb(key, jobs):
                for job in jobs:
                    job.future.set_result(None)

            batcher = Batcher(cb)
            solo = [_job(KEY_A._replace(seq=seq), seq) for seq in (1, 2)]
            jobs = [*solo, _job(KEY_A, 3), _job(KEY_A, 4)]
            for job in jobs:
                batcher.submit(job)
            await batcher.drain()
            assert all(job.future.done() for job in jobs)
            assert (batcher.flushes, batcher.coalesced) == (1, 2)

        asyncio.run(main())

    def test_incompatible_keys_never_share_a_batch(self):
        async def main():
            seen: list[BatchKey] = []

            async def cb(key, jobs):
                seen.append(key)
                assert all(job.key == key for job in jobs)
                for job in jobs:
                    job.future.set_result(None)

            batcher = Batcher(cb, max_batch=2)
            jobs = [_job(KEY_A, 0), _job(KEY_B, 1), _job(KEY_A, 2), _job(KEY_B, 3)]
            for job in jobs:
                batcher.submit(job)
            await asyncio.gather(*(j.future for j in jobs))
            assert sorted(seen, key=str) == sorted([KEY_A, KEY_B], key=str)

        asyncio.run(main())

    def test_flush_callback_failure_fails_every_job(self):
        async def main():
            async def cb(key, jobs):
                raise RuntimeError("flush exploded")

            batcher = Batcher(cb, max_batch=2)
            jobs = [_job(KEY_A, 0), _job(KEY_A, 1)]
            for job in jobs:
                batcher.submit(job)
            for job in jobs:
                with pytest.raises(RuntimeError, match="flush exploded"):
                    await asyncio.wait_for(job.future, timeout=2.0)

        asyncio.run(main())

    def test_drain_flushes_everything(self):
        async def main():
            async def cb(key, jobs):
                for job in jobs:
                    job.future.set_result(job.payload["i"])

            batcher = Batcher(cb, max_batch=100)
            jobs = [_job(KEY_A, i) for i in range(4)]
            for job in jobs:
                batcher.submit(job)
            assert batcher.pending() == 4
            await batcher.drain()
            assert batcher.pending() == 0
            assert [j.future.result() for j in jobs] == [0, 1, 2, 3]

        asyncio.run(main())

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            Batcher(lambda *a: None, max_batch=0)


class TestCoalescedBitExactness:
    def test_batched_gemm_matches_single_requests_bitwise(self, rng):
        """Coalescing is a scheduling transform: a request served inside
        a batch must return exactly the bytes it would have alone."""
        from repro.gemm.tiled import mxu_sgemm

        a = rng.standard_normal((3, 8, 8))
        b = rng.standard_normal((3, 8, 8))
        batch = mxu_sgemm(a, b, workers=1)
        for i in range(3):
            single = mxu_sgemm(a[i], b[i])
            np.testing.assert_array_equal(batch[i], single)
