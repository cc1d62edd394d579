"""Request coalescing by group commit: compatible small GEMMs become one
batched GEMM while the executor is busy.

The serving workload is dominated by many small, identically shaped
GEMMs (FFT radix stages, EPG recursions, fingerprint matches). Executing
them one pool round-trip each wastes the batch axis of the tiled driver
(:class:`repro.gemm.tiled.TiledGEMM`): a stack of GEMMs is one fused
K-chain call.

Every admitted job goes through one FIFO and one dispatch task. A job
that reaches an idle batcher is flushed at once, alone; jobs that arrive
while a flush is running wait, and leave as the next round, grouped by
:class:`BatchKey` — op, GEMM shape, and execution class (degrade level,
ABFT flag) — in arrival order, at most ``max_batch`` jobs per group. So
jobs coalesce exactly while the executor is busy, and no job ever waits
on a timer. Batching is a pure scheduling transform: each matrix of a
stack is bit-identical to the same GEMM run alone, so a coalesced
request returns exactly the bytes it would have alone (asserted in
``tests/serve/``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, NamedTuple

__all__ = ["MAX_BATCH", "BatchKey", "PendingJob", "Batcher"]

#: Most jobs one flushed group holds.
MAX_BATCH = 8


class BatchKey(NamedTuple):
    """Compatibility class: jobs sharing a key may share a batched GEMM."""

    op: str
    m: int
    k: int
    n: int
    #: Execution class — degrade level and ABFT flag must match so every
    #: job in the batch gets the assurance its response claims.
    level: int
    abft: bool
    #: 0 for a coalescable job; otherwise the request's sequence number,
    #: which no other job shares, so the job is flushed alone.
    seq: int = 0


@dataclass
class PendingJob:
    """One admitted request waiting for execution."""

    key: BatchKey
    payload: dict[str, Any]
    future: "asyncio.Future[Any]"
    deadline: float  # absolute time.monotonic() deadline
    enqueued: float = field(default_factory=time.monotonic)
    #: When the executor started the job's group, and the group's size
    #: (stamped by the server's executor thread).
    started: float | None = None
    batch: int = 1


def _groups(jobs: list[PendingJob], cap: int) -> list[tuple[BatchKey, list[PendingJob]]]:
    """Jobs grouped by key, groups in order of their first job, each cut
    at *cap* jobs."""
    groups: list[tuple[BatchKey, list[PendingJob]]] = []
    open_groups: dict[BatchKey, list[PendingJob]] = {}
    for job in jobs:
        group = open_groups.get(job.key)
        if group is None or len(group) == cap:
            group = open_groups[job.key] = []
            groups.append((job.key, group))
        group.append(job)
    return groups


class Batcher:
    """Group commit over one FIFO of pending jobs.

    ``flush_cb(key, jobs)`` is awaited for every group, one group at a
    time; it must resolve each job's future. The batcher owns only
    grouping and ordering — execution, degradation and failure semantics
    live in the server.
    """

    def __init__(
        self,
        flush_cb: Callable[[BatchKey, list[PendingJob]], Awaitable[None]],
        max_batch: int = MAX_BATCH,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush_cb = flush_cb
        self.max_batch = int(max_batch)
        self._pending: list[PendingJob] = []
        self._task: asyncio.Task[None] | None = None
        #: Groups of coalescable jobs flushed, and jobs that shared one.
        self.flushes = 0
        self.coalesced = 0

    # ------------------------------------------------------------------
    def submit(self, job: PendingJob) -> None:
        """Enqueue one job; starts the dispatch task if none is running."""
        self._pending.append(job)
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._dispatch())

    async def _dispatch(self) -> None:
        # Each round takes every pending job; jobs submitted while its
        # groups run form the next round.
        while self._pending:
            jobs, self._pending = self._pending, []
            for key, group in _groups(jobs, self.max_batch):
                await self._flush(key, group)

    async def _flush(self, key: BatchKey, jobs: list[PendingJob]) -> None:
        if key.seq == 0:
            self.flushes += 1
            if len(jobs) > 1:
                self.coalesced += len(jobs)
        try:
            await self._flush_cb(key, jobs)
        except Exception as exc:  # repro: allow[RH403] futures carry the failure
            for job in jobs:
                if not job.future.done():
                    job.future.set_exception(exc)

    # ------------------------------------------------------------------
    def pending(self) -> int:
        return len(self._pending)

    async def drain(self) -> None:
        """Wait until the dispatch task has flushed every pending job."""
        while self._task is not None and not self._task.done():
            await asyncio.gather(self._task, return_exceptions=True)

    def info(self) -> dict[str, Any]:
        return {
            "pending": self.pending(),
            "max_batch": self.max_batch,
            "flushes": self.flushes,
            "coalesced": self.coalesced,
        }
