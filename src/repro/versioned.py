"""The one version-coherence mechanism: :class:`VersionedCache`.

Everything derived from a store — the materialised ``tsdb`` table, zone
map statistics, pruned scans, rollup views, family matrices, served
results — is valid at exactly the ``store.version`` it was computed at.
This module is the only place that policy is written:

- an entry **hits** only for a lookup at the entry's own version, so a
  value computed at version ``v`` can never be returned once the store
  has moved past ``v`` — staleness is structurally impossible, not a
  TTL guess;
- **invalidation** has one trigger, the lookup itself: the first
  ``get``/``put``/``get_or_build`` that observes a strictly newer
  version drops every older entry (counted as ``invalidations``).  An
  operation at an *older* version — a request still pinned to a
  superseded snapshot — misses and stores nothing, and never disturbs
  the newer entries;
- **bounding** is a plain LRU (counted as ``evictions``), so a cold
  storm cannot grow the cache and a hot set smaller than the bound
  stays resident.

Versions only need to be mutually orderable; every store hands out
monotonic integers.  The module imports nothing from the rest of the
package, so ``sql``, ``tsdb``, ``core`` and ``serve`` can all sit on it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable

#: Default entry bound for :class:`VersionedCache`.
DEFAULT_CACHE_ENTRIES = 256


@dataclass
class CacheStats:
    """Counters the serving benchmark and tests read."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0           # LRU pressure evictions
    invalidations: int = 0       # superseded-version evictions
    entries: int = 0
    max_entries: int = 0


class VersionedCache:
    """Bounded, thread-safe LRU of values valid at one store version.

    ``None`` is the miss marker, so it cannot be cached as a value.
    All operations take an internal lock and never call out while
    holding it (``get_or_build`` runs ``build`` unlocked), which makes
    the cache a leaf in any lock order.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._version: Any = None            # newest version observed
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._building: dict[tuple[Hashable, Any], Future] = {}
        self._lock = threading.Lock()
        self._stats = CacheStats(max_entries=max_entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _observe(self, version: Any) -> bool:
        """Note ``version`` was seen (lock held); True if it is the newest."""
        if self._version is None or version > self._version:
            self._stats.invalidations += len(self._entries)
            self._entries.clear()
            self._version = version
        return version == self._version

    def _lookup(self, key: Hashable, version: Any) -> Any:
        if self._observe(version) and key in self._entries:
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return self._entries[key]
        self._stats.misses += 1
        return None

    def _store(self, key: Hashable, version: Any, value: Any) -> None:
        if not self._observe(version):
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._stats.max_entries:
            self._entries.popitem(last=False)
            self._stats.evictions += 1

    def get(self, key: Hashable, version: Any) -> Any | None:
        """The cached value for ``key`` at exactly ``version``, or None."""
        with self._lock:
            return self._lookup(key, version)

    def put(self, key: Hashable, version: Any, value: Any) -> None:
        """Store a value computed at ``version`` (LRU-evicting)."""
        with self._lock:
            self._store(key, version, value)

    def get_or_build(self, key: Hashable, version: Any,
                     build: Callable[[], Any]) -> Any:
        """The value for ``key`` at ``version``, calling ``build()`` on a miss.

        ``build`` runs outside the lock, once per ``(key, version)``:
        threads racing the same miss wait for the first builder's
        result (or its exception) instead of duplicating the work, and
        lookups of other keys are never blocked behind it.
        """
        with self._lock:
            value = self._lookup(key, version)
            if value is not None:
                return value
            pending = self._building.get((key, version))
            if pending is None:
                mine = self._building[(key, version)] = Future()
        if pending is not None:
            return pending.result()
        try:
            value = build()
        except BaseException as exc:
            with self._lock:
                del self._building[(key, version)]
            mine.set_exception(exc)
            raise
        with self._lock:
            del self._building[(key, version)]
            self._store(key, version, value)
        mine.set_result(value)
        return value

    def discard(self, key: Hashable) -> None:
        """Forget ``key`` (its definition changed, not the store)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry; counters and the observed version stay."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return replace(self._stats, entries=len(self._entries))
