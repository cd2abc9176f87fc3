"""The concurrent query-serving tier: ``QueryServer``.

The paper's workflow is interactive: an engineer iterates on declarative
explanation queries over one telemetry store, so the serving profile is
dominated by *repeat* SQL / ``explain`` / ``drill_down`` requests
against a store whose version moves much more slowly than requests
arrive.  ``QueryServer`` is the long-lived front end for that workload:

- synchronous requests (``sql``, ``query``, ``explain``,
  ``drill_down``) run on the caller's thread, and a **worker pool**
  (threads; the hot paths — columnar SQL, stacked numpy scoring —
  release the GIL) executes the ``submit_*`` ones concurrently;
- every request is served against a **pinned snapshot**: the store
  version observed at request start selects a per-version
  :class:`_VersionState` holding a frozen snapshot, a
  :class:`~repro.sql.Database` registered over it, and the explain
  generation — so the view's table, scan index and layouts amortise
  across every request at that version instead of being rebuilt
  per query;
- explains are ranked by one :class:`~repro.core.explain.ExplainCore`,
  the session's explain core too: a new version's generation is a
  refresh of the latest one built, so an explain after a write
  re-aligns, re-scores and re-ranks only what the write touched; the
  server builds each version's generation once, whichever request
  asks first;
- a bounded **result cache** — a
  :class:`~repro.versioned.VersionedCache` keyed on the normalized
  query (:func:`~repro.serve.cache.lex_query`: the tokens the key is
  rendered from are the ones parsed) or the explain shape — returns the
  identical result object for repeat requests.  A SQL result records
  the series its scans read
  (:meth:`~repro.sql.Database.sql_with_reads`: the pruned scans'
  series filters, or everything for a full-table read); an explain
  result reads everything.  The first request to observe a newer
  version sweeps the cache with what its pinned view's write log says
  was written since (:meth:`~repro.tsdb.StoreView.written_since`): a
  result whose reads were written — a new series its filter matches
  included — or any result when the log does not reach back, is
  dropped, and the rest are served at the newer version.  So every
  result served equals a fresh evaluation at the request's pinned
  version.

Results must be treated as read-only: cache hits share one
:class:`~repro.sql.table.Table` / score-table object across callers.

The server wraps a :class:`~repro.tsdb.TimeSeriesStore` (or any
:class:`~repro.tsdb.StoreView`): a request pins the store's frozen
per-version view, which is cached per version and read without locks,
so concurrent writers never change what a pinned request sees.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Hashable, Iterable, Sequence

from repro.core.explain import ExplainCore, _Generation, shareable
from repro.core.ranking import DEFAULT_TOP_K, ScoreTable
from repro.serve.cache import lex_query
from repro.sql.catalog import Database
from repro.sql.table import Table
from repro.tsdb.adapter import register_store
from repro.tsdb.storage import StoreView
from repro.versioned import DEFAULT_CACHE_ENTRIES, VersionedCache

#: Version states kept warm.  Two, not one: a request that snapshotted
#: just before a bump may pin its (older) state after a newer one
#: exists, and must not drop the state the requests after it use.  A
#: dropped state lives on only in the requests still holding it.
KEEP_VERSIONS = 2


@dataclass
class ServedResult:
    """One request's outcome plus its serving metadata.

    ``version`` is the store version observed when the request started
    — the version the result is correct *at*.  ``snapshot`` is the
    pinned read view the request ran against (holding it keeps that
    version's bytes reachable, which the parity tests use to re-verify
    mid-ingest answers after quiesce).  ``cached`` marks a result-cache
    hit; ``seconds`` is the serving wall time: from the call for a
    synchronous request, from the submission (so including queueing in
    the worker pool) for a ``submit_*`` one.
    """

    kind: str                    # "sql" | "explain" | "drill_down"
    value: Any                   # Table for sql, ScoreTable for explain
    version: Any
    cached: bool
    seconds: float
    snapshot: StoreView

    @property
    def table(self) -> Table:
        """The result as a relational table (Score Tables convert)."""
        if isinstance(self.value, Table):
            return self.value
        return self.value.to_table()


class _VersionState:
    """Everything the server amortises across requests at one version.

    ``generation`` is this version's explain work; the server builds it
    on the first explain (:meth:`QueryServer._generation`),
    single-flight under ``build_lock``.
    """

    def __init__(self, version: Any, snapshot: StoreView) -> None:
        self.version = version
        self.snapshot = snapshot
        self.db = Database()
        register_store(self.db, snapshot)
        self.generation: _Generation | None = None
        self.build_lock = threading.Lock()


class QueryServer:
    """Long-lived concurrent serving front end over one store.

    Parameters
    ----------
    store:
        The telemetry store to serve, a ``TimeSeriesStore`` (or a
        ``StoreView``).  Snapshots pin each request to the
        version observed at its start.
    n_workers:
        Size of the worker pool (threads) that runs ``submit_*``
        requests; synchronous requests run on the caller's thread.
    cache_entries:
        Bound of the version-keyed result cache.
    group_by:
        Family grouping for ``explain``/``drill_down`` (as in
        :class:`~repro.core.engine.ExplainItSession`).
    rank_workers:
        Accepted for callers written when rankings could be scored in a
        process pool; it changes nothing.

    The two newest version states stay warm; older ones are dropped.
    """

    def __init__(self, store, n_workers: int = 8,
                 cache_entries: int = DEFAULT_CACHE_ENTRIES,
                 group_by: str = "name",
                 rank_workers: int = 4) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._store = store
        self._core = ExplainCore(group_by)
        self._cache = VersionedCache(cache_entries)
        self._pool = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="repro-serve")
        self._states: dict[Any, _VersionState] = {}
        self._state_lock = threading.Lock()
        self._closed = False
        #: Synchronous requests in flight, which ``close`` waits for.
        self._running = 0
        self._idle = threading.Condition(threading.Lock())
        self._requests = {"sql": 0, "explain": 0, "drill_down": 0}
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the worker pool, wait for the synchronous requests in
        flight, and drop every per-version state."""
        with self._idle:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        with self._idle:
            self._idle.wait_for(lambda: not self._running)
        with self._state_lock:
            self._states.clear()
        self._core.clear()
        self._cache.clear()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------
    def sql(self, query: str) -> Table:
        """Execute one SQL statement through the serving tier."""
        return self.query(query).value

    def query(self, query: str) -> ServedResult:
        """Like :meth:`sql`, returning the full serving metadata."""
        return self._direct(self._run_sql, query)

    def submit_sql(self, query: str) -> "Future[ServedResult]":
        """Enqueue a SQL request on the worker pool."""
        self._check_open()
        started = time.perf_counter()
        return self._pool.submit(self._run_sql, query, started)

    def explain(self, target: str, scorer: Any = "L2-P50",
                condition: Any = None,
                search: Iterable[str] | None = None,
                exclude: Iterable[str] = (),
                top_k: int = DEFAULT_TOP_K) -> ScoreTable:
        """Rank candidate causes for ``target`` (Algorithm 1, served)."""
        return self._direct(
            self._run_explain, "explain", target, scorer, condition,
            None if search is None else tuple(search), tuple(exclude),
            top_k).value

    def submit_explain(self, target: str, scorer: Any = "L2-P50",
                       condition: Any = None,
                       search: Iterable[str] | None = None,
                       exclude: Iterable[str] = (),
                       top_k: int = DEFAULT_TOP_K,
                       kind: str = "explain") -> "Future[ServedResult]":
        self._check_open()
        started = time.perf_counter()
        return self._pool.submit(
            self._run_explain, kind, target, scorer, condition,
            None if search is None else tuple(search), tuple(exclude),
            top_k, started)

    def drill_down(self, target: str, families: Sequence[str],
                   scorer: Any = "L2-P50",
                   top_k: int = DEFAULT_TOP_K) -> ScoreTable:
        """Re-rank within a narrowed search space (the §5.4 workflow)."""
        return self._direct(
            self._run_explain, "drill_down", target, scorer, None,
            tuple(families), (), top_k).value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Serving counters: requests, cache behaviour, warm state."""
        with self._state_lock:
            versions = sorted(self._states)
            requests = dict(self._requests)
        return {
            "requests": requests,
            "cache": asdict(self._cache.stats),
            "store_version": self._store.version,
            "warm_versions": versions,
            "uptime_seconds": time.monotonic() - self._started,
        }

    @property
    def cache(self) -> VersionedCache:
        return self._cache

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("QueryServer is closed")

    def _direct(self, body, *args) -> ServedResult:
        """Run a request body on the caller's thread; ``close`` waits
        for it."""
        started = time.perf_counter()
        with self._idle:
            self._check_open()
            self._running += 1
        try:
            return body(*args, started)
        finally:
            with self._idle:
                self._running -= 1
                if not self._running:
                    self._idle.notify_all()

    def _count(self, kind: str) -> None:
        # Request bodies run on several threads, and ``+=`` on a dict slot
        # is a read-modify-write that nothing makes atomic.
        with self._state_lock:
            self._requests[kind] += 1

    def _pin(self) -> _VersionState:
        """Get-or-create the state for the version current right now."""
        snapshot = self._store.snapshot()
        version = snapshot.version
        with self._state_lock:
            state = self._states.get(version)
            if state is None:
                state = self._states[version] = _VersionState(
                    version, snapshot)
                # Drop all but the newest states — never the one just
                # created, should it be a late-arriving older version.
                for old in sorted(self._states)[:-KEEP_VERSIONS]:
                    if old != version:
                        del self._states[old]
        return state

    # -- request bodies (on the caller's thread or the worker pool) -----
    def _serve(self, kind: str, key: Hashable | None, started: float,
               compute) -> ServedResult:
        """Pin a version, answer from the result cache or ``compute(state)``,
        which returns the value and what it read (``None``: everything).

        ``key=None`` marks a request shape that is not cacheable.  The
        lookup passes the pinned view's write log, so the sweep it may
        trigger keeps every result whose reads were not written.
        """
        state = self._pin()
        value = None if key is None else self._cache.get(
            key, state.version, state.snapshot.written_since)
        cached = value is not None
        if not cached:
            value, reads = compute(state)
            if key is not None:
                self._cache.put(key, state.version, value, reads)
        return ServedResult(
            kind=kind, value=value, version=state.version,
            cached=cached, seconds=time.perf_counter() - started,
            snapshot=state.snapshot)

    def _run_sql(self, query: str, started: float) -> ServedResult:
        self._count("sql")
        key, tokens = lex_query(query)
        return self._serve("sql", ("sql", key), started,
                           lambda state: state.db.sql_with_reads(query,
                                                                 tokens))

    def _run_explain(self, kind: str, target: str, scorer: Any,
                     condition: Any, search: tuple | None, exclude: tuple,
                     top_k: int, started: float) -> ServedResult:
        self._count(kind)
        # Only plain-data request shapes are cacheable; a caller passing
        # a live Scorer or FeatureFamily object gets a fresh run.
        key = ("explain", target, scorer, condition, search, exclude, top_k)
        return self._serve(
            kind, key if shareable(scorer, condition) else None, started,
            lambda state: (self._core.rank(
                self._generation(state), target, scorer, condition, search,
                exclude, top_k), None))

    def _generation(self, state: _VersionState) -> _Generation:
        """``state``'s generation, built by the core on first use."""
        if state.generation is None:
            with state.build_lock:
                if state.generation is None:
                    state.generation = self._core.generation(state.snapshot)
        return state.generation


