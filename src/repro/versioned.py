"""The served-result cache: :class:`VersionedCache`.

A served answer is computed at one ``store.version``; the query
server keeps its results here (what a store's view derives for itself,
such as the ``tsdb`` index, lives on the view instead:
:meth:`~repro.tsdb.storage.StoreView.derived`).  This module is the
only place the policy for keeping them is written:

- an entry **hits** only for a lookup at the cache's current version:
  a value is returned to a request pinned at that version or not at
  all, so a request that observed a later version never sees one that
  a write since has made stale;
- **invalidation** has one trigger, the lookup itself: the first
  ``get``/``put`` that observes a strictly newer version sweeps the
  entries.  An entry survives the sweep when it records what it read
  (``reads``) and the lookup can say what was written since the
  cache's version (``written``) and none of it was read; the survivors
  are valid at the newer version, which the cache moves to.  Every other entry is dropped (counted as
  ``invalidations``).  An operation at an *older* version — a request
  still pinned to a superseded snapshot — misses and stores nothing,
  and never disturbs the newer entries;
- **bounding** is a plain LRU (counted as ``evictions``), so a cold
  storm cannot grow the cache and a hot set smaller than the bound
  stays resident.

Versions only need to be mutually orderable; every store hands out
monotonic integers.  What was written and what was read are opaque
here: a read set is a collection of predicates, each called on every
written item.  The module imports nothing from the rest of the
package.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Collection, Hashable

#: What an entry read: predicates over written items, any of which
#: accepting one makes the entry stale; ``None`` reads everything.
Reads = Collection[Callable[[Any], bool]] | None
#: What was written since an older version, or ``None`` when unknown.
Written = Callable[[Any], Collection[Any] | None]

#: Default entry bound for :class:`VersionedCache`.
DEFAULT_CACHE_ENTRIES = 256


@dataclass
class CacheStats:
    """Counters the serving benchmark and tests read."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0           # LRU pressure evictions
    invalidations: int = 0       # entries a newer version swept out
    entries: int = 0
    max_entries: int = 0


class VersionedCache:
    """Bounded, thread-safe LRU of values valid at one store version.

    ``None`` is the miss marker, so it cannot be cached as a value.
    All operations take an internal lock.  Holding it, the cache calls
    only a lookup's ``written`` and the entries' read predicates, which
    must take no lock.  So the cache is a leaf in any lock order.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._version: Any = None            # newest version observed
        #: key -> (value, reads), every entry valid at ``_version``
        self._entries: OrderedDict[Hashable, tuple[Any, Reads]] = \
            OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats(max_entries=max_entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _observe(self, version: Any, written: Written | None = None
                 ) -> bool:
        """Note ``version`` was seen (lock held); True if it is the newest.

        A newer version sweeps: each entry whose reads met what
        ``written(old version)`` names is dropped — every entry when
        that is ``None`` or unknown — and the rest move to ``version``.
        """
        if self._version is None or version > self._version:
            changed = None if written is None or self._version is None \
                else written(self._version)
            if changed is None:
                stale = list(self._entries)
            else:
                stale = [key for key, (_, reads) in self._entries.items()
                         if reads is None or any(read(item) for read in reads
                                                 for item in changed)]
            for key in stale:
                del self._entries[key]
            self._stats.invalidations += len(stale)
            self._version = version
        return version == self._version

    def get(self, key: Hashable, version: Any,
            written: Written | None = None) -> Any | None:
        """The cached value for ``key`` at exactly ``version``, or None.

        ``written(older)`` names what was written between an older
        version and ``version`` (``None`` when it cannot tell), so the
        sweep this lookup may trigger keeps what was not read.
        """
        with self._lock:
            if self._observe(version, written) and key in self._entries:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return self._entries[key][0]
            self._stats.misses += 1
            return None

    def put(self, key: Hashable, version: Any, value: Any,
            reads: Reads = None) -> None:
        """Store a value computed at ``version`` (LRU-evicting), with
        the predicates a written item fails unless the value read it
        (``None``: the value read everything)."""
        with self._lock:
            if not self._observe(version):
                return
            self._entries[key] = (value, reads)
            self._entries.move_to_end(key)
            while len(self._entries) > self._stats.max_entries:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry; counters and the observed version stay."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return replace(self._stats, entries=len(self._entries))
