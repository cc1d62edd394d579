"""Content addressing and the server's in-memory result cache.

:func:`stable_digest` is a SHA-256 digest over a canonical encoding of
its arguments (ints, floats, strings, ndarrays, enums,
callables-by-name, and containers thereof); the serving layer keys
repeat payloads by it. :class:`ResultCache` is the in-memory LRU behind
those keys. It stores entries *pickled* and unpickles them per hit, so
callers can mutate what they get back without corrupting the cache, and
it lives exactly as long as the process that built it.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from enum import Enum
from typing import Any

import numpy as np

__all__ = ["stable_digest", "ResultCache"]


# ----------------------------------------------------------------------
# Stable content addressing
# ----------------------------------------------------------------------
def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Canonical type-tagged encoding of *obj* into hash *h*.

    Tags prevent cross-type collisions (``1`` vs ``1.0`` vs ``"1"``);
    containers encode length + elements; dict/set entries are sorted by
    their own digests so insertion order is irrelevant.
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, int):
        raw = obj.to_bytes((obj.bit_length() + 15) // 8 + 1, "little", signed=True)
        h.update(b"i%d:" % len(raw) + raw)
    elif isinstance(obj, float):
        h.update(b"f" + np.float64(obj).tobytes())
    elif isinstance(obj, complex):
        h.update(b"c" + np.complex128(obj).tobytes())
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"s%d:" % len(raw) + raw)
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"y%d:" % len(obj) + bytes(obj))
    elif isinstance(obj, np.ndarray):
        h.update(b"a" + obj.dtype.str.encode("ascii"))
        _feed(h, obj.shape)
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        h.update(b"g" + obj.dtype.str.encode("ascii") + obj.tobytes())
    elif isinstance(obj, Enum):
        _feed(h, (type(obj).__qualname__, obj.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"T" if isinstance(obj, tuple) else b"L")
        h.update(b"%d:" % len(obj))
        for el in obj:
            _feed(h, el)
    elif isinstance(obj, (dict, set, frozenset)):
        entries = obj.items() if isinstance(obj, dict) else ((e,) for e in obj)
        digests = sorted(stable_digest(*entry) for entry in entries)
        h.update(b"D%d:" % len(digests))
        for d in digests:
            h.update(d.encode("ascii"))
    elif callable(obj):
        name = f"{getattr(obj, '__module__', '?')}.{getattr(obj, '__qualname__', repr(obj))}"
        h.update(b"F")
        _feed(h, name)
    else:
        # Last resort: type-qualified pickle. Deterministic for the
        # plain dataclasses/config objects that reach the cache.
        h.update(b"P")
        _feed(h, type(obj).__qualname__)
        h.update(pickle.dumps(obj, protocol=4))


def stable_digest(*objs: Any) -> str:
    """Hex SHA-256 of the canonical encoding of *objs*."""
    h = hashlib.sha256()
    for obj in objs:
        _feed(h, obj)
    return h.hexdigest()


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class ResultCache:
    """In-memory LRU of pickled values."""

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._mem: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str, default: Any = None) -> Any:
        """The cached value for *key* (unpickled fresh), else *default*.

        An entry that no longer unpickles (bit rot, or a pickle that
        references a class that no longer loads) is treated as a miss:
        it is evicted, so the value is recomputed and re-stored cleanly
        instead of the same poisoned blob failing every future read.
        """
        with self._lock:
            blob = self._mem.get(key)
            if blob is not None:
                self._mem.move_to_end(key)
        if blob is None:
            self.misses += 1
            return default
        try:
            value = pickle.loads(blob)
        except (
            pickle.UnpicklingError,
            EOFError,
            ValueError,
            IndexError,
            KeyError,
            AttributeError,
            ImportError,
            TypeError,
            MemoryError,
        ):
            self.corrupt += 1
            self.misses += 1
            with self._lock:
                self._mem.pop(key, None)
            return default
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key*, evicting the least recent entry
        beyond ``maxsize``."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._mem[key] = blob
            self._mem.move_to_end(key)
            while len(self._mem) > self.maxsize:
                self._mem.popitem(last=False)

    def info(self) -> dict[str, Any]:
        return {
            "entries": len(self._mem),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }
