"""VersionedCache: hits, LRU eviction, version invalidation, thread safety."""

import threading
import time

import pytest

from repro.versioned import VersionedCache


def test_miss_then_hit_roundtrip():
    cache = VersionedCache()
    assert cache.get("q", 1) is None
    cache.put("q", 1, "result")
    assert cache.get("q", 1) == "result"
    stats = cache.stats
    assert stats.hits == 1 and stats.misses == 1 and stats.entries == 1


def test_version_mismatch_is_a_miss():
    cache = VersionedCache()
    cache.put("q", 1, "old")
    assert cache.get("q", 2) is None
    # Observing v2 dropped the superseded entry; a reader still pinned
    # at v1 recomputes rather than pinning dead results in the LRU.
    assert cache.get("q", 1) is None
    assert cache.stats.invalidations == 1


def test_lru_eviction_order_and_bound():
    cache = VersionedCache(max_entries=2)
    cache.put("a", 1, "A")
    cache.put("b", 1, "B")
    assert cache.get("a", 1) == "A"     # refresh a; b becomes LRU
    cache.put("c", 1, "C")
    assert cache.get("b", 1) is None
    assert cache.get("a", 1) == "A"
    assert cache.get("c", 1) == "C"
    assert len(cache) == 2
    assert cache.stats.evictions == 1


def test_newer_version_drops_only_stale_entries():
    cache = VersionedCache()
    cache.put("a", 1, "A1")
    cache.put("b", 1, "B1")
    cache.put("a", 2, "A2")
    assert cache.get("a", 2) == "A2"
    assert cache.get("a", 1) is None
    assert cache.stats.invalidations == 2


def test_same_version_observation_invalidates_nothing():
    cache = VersionedCache()
    cache.put("a", 3, "A")
    assert cache.get("b", 3) is None
    assert cache.get("a", 3) == "A"
    assert cache.stats.invalidations == 0


def test_older_version_never_evicts_newer_entries():
    """The out-of-order pin: a request that snapshotted at v1 reaches
    the cache after another already cached at v3."""
    cache = VersionedCache()
    cache.put("a", 3, "A3")
    assert cache.get("a", 1) is None
    cache.put("a", 1, "A1")              # superseded on arrival: dropped
    assert cache.get_or_build("b", 1, lambda: "B1") == "B1"
    assert cache.get("a", 3) == "A3"
    assert cache.get("b", 3) is None
    assert cache.stats.invalidations == 0
    assert len(cache) == 1


def test_clear_empties_but_keeps_counters():
    cache = VersionedCache()
    cache.put("a", 1, "A")
    cache.get("a", 1)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 1


def test_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        VersionedCache(max_entries=0)


def test_concurrent_puts_gets_and_sweeps_stay_consistent():
    cache = VersionedCache(max_entries=64)
    errors = []

    def worker(tid):
        try:
            for i in range(300):
                version = i % 5
                cache.put((tid, i % 10), version, i)
                value = cache.get((tid, i % 10), version)
                assert value is None or isinstance(value, int)
        except Exception as exc:      # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(cache) <= 64


def test_get_or_build_builds_once_per_key_and_version_under_races():
    cache = VersionedCache()
    built = []                           # list.append is atomic

    def build(version):
        built.append(version)
        time.sleep(0.02)     # hold the build open so every racer arrives
        return object()

    for version in (1, 2):
        gate = threading.Barrier(8)
        seen = []

        def worker():
            gate.wait(timeout=30)
            seen.append(cache.get_or_build(
                "k", version, lambda: build(version)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and len({id(value) for value in seen}) == 1
    assert built == [1, 2]


def test_get_or_build_propagates_build_errors_and_recovers():
    cache = VersionedCache()
    with pytest.raises(KeyError):
        cache.get_or_build("k", 1, lambda: {}["boom"])
    assert cache.get_or_build("k", 1, lambda: "ok") == "ok"
