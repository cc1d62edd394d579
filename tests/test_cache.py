"""Content addressing and the in-memory result cache."""

from __future__ import annotations

import numpy as np

from repro.cache import ResultCache, stable_digest


class TestStableDigest:
    def test_deterministic(self):
        assert stable_digest(1, "x", 2.5) == stable_digest(1, "x", 2.5)

    def test_type_tagged(self):
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest(True) != stable_digest(1)

    def test_ndarray_content_addressed(self, rng):
        a = rng.normal(size=(5, 7))
        assert stable_digest(a) == stable_digest(a.copy())
        assert stable_digest(a) != stable_digest(a + 1e-16 + 1)
        assert stable_digest(a) != stable_digest(a.astype(np.float32))
        assert stable_digest(a) != stable_digest(a.reshape(7, 5))

    def test_noncontiguous_equals_contiguous(self, rng):
        a = rng.normal(size=(6, 6))
        assert stable_digest(a[::2]) == stable_digest(a[::2].copy())

    def test_dict_order_invariant(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
        assert stable_digest({"a": 1, "b": 2}) != stable_digest({"a": 2, "b": 1})

    def test_callables_keyed_by_qualname(self):
        assert stable_digest(stable_digest) == stable_digest(stable_digest)
        assert stable_digest(stable_digest) != stable_digest(ResultCache)

    def test_containers(self):
        assert stable_digest([1, 2]) != stable_digest((1, 2))
        assert stable_digest([1, [2]]) != stable_digest([1, [3]])


class TestResultCache:
    def test_miss_then_hit(self):
        c = ResultCache()
        assert c.get("k") is None
        c.put("k", {"v": 1})
        assert c.get("k") == {"v": 1}
        assert c.hits == 1 and c.misses == 1

    def test_hit_returns_independent_copy(self):
        c = ResultCache()
        c.put("k", [1, 2, 3])
        got = c.get("k")
        got.append(4)
        assert c.get("k") == [1, 2, 3]  # mutation did not corrupt the entry

    def test_lru_eviction(self):
        c = ResultCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refresh "a": "b" is now least recent
        c.put("c", 3)
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3

    def test_info(self):
        c = ResultCache(maxsize=8)
        c.put("k", 1)
        c.get("k")
        c.get("absent")
        info = c.info()
        assert info["entries"] == 1 and info["maxsize"] == 8
        assert info["hits"] == 1 and info["misses"] == 1


class TestCorruptionRecovery:
    """Corrupted entries are misses (evicted), never crashes."""

    def test_recovers_by_recomputing(self):
        cache = ResultCache()
        cache.put("key", {"value": [1, 2, 3]})
        cache._mem["key"] = b""  # zero-length blob
        assert cache.get("key", "MISS") == "MISS"
        cache.put("key", "fresh")
        assert cache.get("key") == "fresh"

    def test_corrupt_memory_entry_is_evicted(self):
        cache = ResultCache()
        cache.put("key", [1])
        cache._mem["key"] = b"\x80\x04broken"  # simulate in-memory rot
        assert cache.get("key", "MISS") == "MISS"
        assert "key" not in cache._mem
        assert cache.corrupt == 1

    def test_intact_entries_unaffected(self):
        cache = ResultCache()
        cache.put("good", 42)
        cache.put("bad", 43)
        cache._mem["bad"] = b"junk"
        assert cache.get("good") == 42
        assert cache.get("bad", "MISS") == "MISS"
        assert cache.info()["corrupt"] == 1
