"""Structured task-failure records and the retry policy.

This is the leaf module of :mod:`repro.resilience`: it defines the
vocabulary the resilient execution engine (:mod:`repro.parallel`) speaks
— what a failed task looks like after its retries are exhausted, and how
the explicit timeout/retries/backoff arguments of a call resolve into a
policy. It deliberately imports nothing from the rest of the package so
:mod:`repro.parallel` can depend on it without cycles.

The three arguments (all optional):

``timeout``
    Per-task wall-clock budget in seconds. A task still running past it
    is abandoned: its worker process is terminated, the pool is
    respawned, and the task is retried or reported as failed.
``retries``
    How many times a failed (raised / timed out / pool-crashed) task is
    retried after its first attempt. Default 0: one attempt, exactly the
    pre-resilience behaviour.
``backoff``
    Base delay in seconds between retry rounds. The actual delay grows
    exponentially with the attempt number and carries multiplicative
    jitter so retrying workers do not stampede in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

__all__ = [
    "TaskFailure",
    "ParallelTaskError",
    "RetryPolicy",
    "resolve_policy",
]

#: Default base backoff between retry rounds (seconds).
DEFAULT_BACKOFF = 0.05

#: Backoff growth is capped here so deep retry chains stay responsive.
MAX_BACKOFF = 5.0


@dataclass(frozen=True)
class TaskFailure:
    """One task's terminal failure, after every allowed attempt.

    Returned in-place of a result by ``parallel_map(...,
    return_failures=True)`` and carried by :class:`ParallelTaskError`
    otherwise — either way the caller learns *which* task failed, how
    many times it was tried, and why, instead of an opaque raise.
    """

    index: int
    attempts: int
    cause: str  # "exception" | "timeout" | "broken-pool"
    error_type: str = ""
    message: str = ""

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        what = self.error_type or self.cause
        detail = f": {self.message}" if self.message else ""
        return (
            f"task {self.index} failed after {self.attempts} "
            f"attempt{'s' if self.attempts != 1 else ''} ({what}{detail})"
        )

    @classmethod
    def from_exception(cls, index: int, attempts: int, exc: BaseException) -> "TaskFailure":
        return cls(
            index=index,
            attempts=attempts,
            cause="exception",
            error_type=type(exc).__name__,
            message=str(exc),
        )


class ParallelTaskError(RuntimeError):
    """Raised when tasks fail terminally and failures were not requested
    as values. Carries the full :class:`TaskFailure` list."""

    def __init__(self, failures: list[TaskFailure]):
        self.failures = list(failures)
        head = "; ".join(str(f) for f in self.failures[:3])
        more = f" (+{len(self.failures) - 3} more)" if len(self.failures) > 3 else ""
        super().__init__(
            f"{len(self.failures)} of the parallel tasks failed terminally: {head}{more}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Resolved resilience parameters for one ``parallel_map`` call.

    ``retries`` counts *additional* attempts after the first, so every
    task runs at most ``retries + 1`` times. ``timeout=None`` disables
    the per-task deadline. The policy is inert (``active`` false) at the
    defaults, which keeps the fast path bit-for-bit untouched.
    """

    retries: int = 0
    timeout: float | None = None
    backoff: float = DEFAULT_BACKOFF
    jitter: float = 0.25
    #: Seed for the jitter RNG. Jitter only spaces retries in time — it
    #: never touches data — but an unseeded RNG would still make failure
    #: schedules unreplayable, so it is threaded explicitly like every
    #: other random source in the repo (lint rule DT203).
    seed: int = 2024

    @property
    def active(self) -> bool:
        return self.retries > 0 or self.timeout is not None

    def jitter_rng(self) -> Random:
        """A fresh, deterministically seeded jitter source for one
        ``parallel_map`` call."""
        return Random(self.seed)

    def delay(self, attempt: int, rng: Random) -> float:
        """Backoff before retrying a task that has run *attempt* times:
        exponential in the attempt count, capped, with jitter."""
        base = min(self.backoff * (2.0 ** max(attempt - 1, 0)), MAX_BACKOFF)
        return base * (1.0 + self.jitter * rng.random())

    def schedule(self, attempts: int | None = None) -> list[float]:
        """The full retry-delay schedule from a fresh :meth:`jitter_rng`.

        Deterministic for a given seed: two calls — or two processes, or
        the same process before and after a pool respawn — produce the
        same list, which is what makes failure timelines replayable.
        """
        n = self.retries if attempts is None else attempts
        rng = self.jitter_rng()
        return [self.delay(attempt, rng) for attempt in range(1, n + 1)]


def resolve_policy(
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    seed: int | None = None,
) -> RetryPolicy:
    """Resolve a :class:`RetryPolicy` from explicit arguments; ``None``
    takes the inert default (no deadline, no retry, default backoff).

    ``timeout <= 0`` disables the deadline; negative retries clamp to 0.
    ``seed`` controls the retry-jitter RNG (timing only, never data).
    """
    if timeout is not None and timeout <= 0:
        timeout = None
    retries = max(0, int(retries or 0))
    backoff = DEFAULT_BACKOFF if backoff is None else max(0.0, float(backoff))
    if seed is None:
        return RetryPolicy(retries=retries, timeout=timeout, backoff=backoff)
    return RetryPolicy(
        retries=retries, timeout=timeout, backoff=backoff, seed=int(seed)
    )
