"""Content-addressed operand split cache.

M3XU's cost model amortises the decomposition of each FP32 operand into
12-bit lanes across the MMA steps of one instruction, but a *workload*
amortises it much further: the serving pattern is fixed weights times
streaming activations, and the batched/sweep entry points stack the same
matrix many times. Re-deriving the split (``resolve_parts`` /
``split_fp32_fields``) for a matrix whose bytes were split moments ago
is pure waste — hashing 2 MB costs a tenth of splitting it.

This module provides the process-wide store those paths share:

* keys are :func:`operand_digest` — ``stable_digest`` (the same
  canonical SHA-256 the result cache uses) over the operand's bytes,
  dtype, shape and the consumer's mode/kind tags, so two byte-identical
  matrices collide on purpose and nothing else ever does;
* values are whatever pre-split artefact the consumer stores — a
  value-level :class:`~repro.gemm.plan.OperandSplit`, the vector
  engine's packed lane fields, a quantised dense operand — held in a
  bounded LRU (:class:`SplitCache`) capped by entry count *and* bytes;
* every cached array is frozen read-only (:func:`freeze_arrays`): cache
  hits hand out shared references, and the bit-identity contract dies
  the moment a consumer can scribble on one.

``REPRO_SPLIT_CACHE`` gates the whole thing (default **on**; ``0`` /
``false`` / ``off`` disables). The cold path is bit-identical by
construction: a hit returns exactly what the splitting code produced
for the same bytes, and a disabled cache runs exactly the pre-cache
code. Malformed environment values warn and fall back to the default,
mirroring ``REPRO_WORKERS``.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections import OrderedDict
from typing import Any, Iterable

import numpy as np

from ..cache import stable_digest

__all__ = [
    "SPLIT_CACHE_ENV",
    "SPLIT_CACHE_MIN_BYTES",
    "DEFAULT_SPLIT_CACHE_ENTRIES",
    "DEFAULT_SPLIT_CACHE_BYTES",
    "resolve_split_cache",
    "operand_digest",
    "freeze_arrays",
    "SplitCache",
    "DEFAULT_SPLIT_CACHE",
    "split_cache_probe",
]

#: Environment variable gating the split cache (``0``/``false``/``off``).
SPLIT_CACHE_ENV = "REPRO_SPLIT_CACHE"

#: Operands below this many bytes are never cached: the digest+bookkeeping
#: overhead rivals the split itself, and tiny tiles churn the LRU.
SPLIT_CACHE_MIN_BYTES = 1 << 12

#: Default LRU entry bound.
DEFAULT_SPLIT_CACHE_ENTRIES = 64

#: Default LRU byte bound (sum over cached arrays). An FP32 split of a
#: 512x512 operand is ~6 MB (dense + hi + lo), so the default holds a few
#: dozen serving-sized weight matrices.
DEFAULT_SPLIT_CACHE_BYTES = 256 << 20

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


def resolve_split_cache(enabled: bool | None = None) -> bool:
    """Whether the operand split cache is enabled.

    Explicit ``enabled`` wins; otherwise ``REPRO_SPLIT_CACHE`` is
    consulted; otherwise **on**. An unrecognised environment value warns
    and falls back to the default, mirroring ``REPRO_WORKERS``.
    """
    if enabled is not None:
        return bool(enabled)
    raw = os.environ.get(SPLIT_CACHE_ENV, "").strip().lower()
    if not raw or raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    warnings.warn(
        f"{SPLIT_CACHE_ENV}={raw!r} is not a boolean; split cache stays enabled",
        RuntimeWarning,
        stacklevel=2,
    )
    return True


def operand_digest(x: np.ndarray, *tags: Any) -> str:
    """Content address of one operand: bytes + dtype + shape + *tags*.

    Byte-identical operands (same dtype/shape) collide on purpose; the
    tags keep different consumers (mode, artefact kind) apart.
    """
    return stable_digest("split-cache-v1", np.asarray(x), *tags)


def freeze_arrays(value: Any) -> Any:
    """Mark every ndarray reachable through *value* read-only (in place).

    Cache hits share references; a writable cached plane would let one
    caller corrupt every later hit. Arrays that do not own their base
    (views, broadcasts) are left as-is — they are already read-only or
    their owner is frozen alongside them.
    """
    if isinstance(value, np.ndarray):
        if value.base is None:
            value.flags.writeable = False
        return value
    if isinstance(value, dict):
        for v in value.values():
            freeze_arrays(v)
        return value
    if isinstance(value, (tuple, list)):
        for v in value:
            freeze_arrays(v)
        return value
    for name in getattr(value, "__dataclass_fields__", ()):
        freeze_arrays(getattr(value, name))
    return value


def _value_nbytes(value: Any) -> int:
    """Total ndarray bytes reachable through *value* (views count once
    per reference — good enough for a bound, not an allocator)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_value_nbytes(v) for v in value.values())
    if isinstance(value, (tuple, list)):
        return sum(_value_nbytes(v) for v in value)
    fields: Iterable[str] = getattr(value, "__dataclass_fields__", ())
    return sum(_value_nbytes(getattr(value, name)) for name in fields)


class SplitCache:
    """Bounded in-memory LRU for pre-split operand artefacts.

    Unlike :class:`repro.cache.ResultCache` the values are *not* pickled:
    hits share the stored (frozen, read-only) arrays, because sharing is
    the entire point — the split planes feed the MMA datapath as-is.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_SPLIT_CACHE_ENTRIES,
        max_bytes: int = DEFAULT_SPLIT_CACHE_BYTES,
    ):
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._mem: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: str) -> Any:
        """The cached artefact for *key* (shared reference) or ``None``."""
        with self._lock:
            hit = self._mem.get(key)
            if hit is None:
                self.misses += 1
                return None
            self._mem.move_to_end(key)
            self.hits += 1
            return hit[0]

    def put(self, key: str, value: Any) -> Any:
        """Store *value* (frozen first) under *key*; returns *value*.

        Oversized values (beyond the byte bound on their own) are frozen
        but not stored — the caller keeps a usable artefact either way.
        """
        freeze_arrays(value)
        nbytes = _value_nbytes(value)
        if nbytes > self.max_bytes:
            return value
        with self._lock:
            old = self._mem.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._mem[key] = (value, nbytes)
            self._bytes += nbytes
            while self._mem and (
                len(self._mem) > self.max_entries or self._bytes > self.max_bytes
            ):
                _, (_, dropped) = self._mem.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._mem.clear()
            self._bytes = 0
            self.hits = self.misses = self.evictions = 0

    def info(self) -> dict[str, Any]:
        with self._lock:
            return {
                "enabled": resolve_split_cache(),
                "entries": len(self._mem),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: The process-wide split cache every pre-split consumer shares.
DEFAULT_SPLIT_CACHE = SplitCache()


def split_cache_probe(_item: Any = None) -> dict[str, Any]:
    """Module-level (pickleable) task fn returning the *executing*
    process's :data:`DEFAULT_SPLIT_CACHE` stats.

    Pool workers keep their own resident split caches (forked state plus
    whatever their jobs split); ship this through
    :func:`repro.parallel.parallel_map` to observe them from the parent —
    test/benchmark support.
    """
    return DEFAULT_SPLIT_CACHE.info()
