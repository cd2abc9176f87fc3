"""The concurrent query-serving tier: ``QueryServer``.

The paper's workflow is interactive: an engineer iterates on declarative
explanation queries over one telemetry store, so the serving profile is
dominated by *repeat* SQL / ``explain`` / ``drill_down`` requests
against a store whose version moves much more slowly than requests
arrive.  ``QueryServer`` is the long-lived front end for that workload:

- a **worker pool** (threads; the hot paths — columnar SQL, stacked
  numpy scoring — release the GIL) executes requests concurrently;
- every request is served against a **pinned snapshot**: the store
  version observed at request start selects a per-version
  :class:`_VersionState` holding a frozen snapshot, a
  :class:`~repro.sql.Database` registered over it, and the family set —
  so materialised tables, scan caches and planner statistics amortise
  across every request at that version instead of being rebuilt
  per query;
- for ``backend="process"`` rankings the state publishes each batch
  group's Y/Z/X matrices **once per version** through the existing
  :class:`~repro.engine_exec.shm.SharedMatrixPool`
  (:func:`~repro.engine_exec.executor.share_shm_jobs`); repeat explain
  requests replay the same zero-copy handles into a long-lived process
  pool instead of pickling matrices per request;
- a bounded **result cache** (:class:`~repro.serve.cache.ResultCache`)
  keyed on ``(normalized query, store.version, backend/transfer knobs)``
  returns the identical result object for repeat requests, and is swept
  whenever ingest bumps the version — a result computed at version
  ``v`` is never served to a request that observed a later version.

Results must be treated as read-only: cache hits share one
:class:`~repro.sql.table.Table` / score-table object across callers.

The server wraps either a plain :class:`~repro.tsdb.TimeSeriesStore`
(single-writer; snapshots isolate readers from later mutations) or a
:class:`~repro.tsdb.sharded.ShardedTimeSeriesStore` (the concurrent
ingest tier; snapshots are lock-free-readable and cached per version,
and the store's version-bump hook sweeps the result cache eagerly).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

from repro.core.families import FamilySet, families_from_store
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import DEFAULT_TOP_K, ScoreTable, rank_families
from repro.engine_exec.executor import (
    BACKENDS,
    HypothesisExecutor,
    ShmJob,
    share_shm_jobs,
)
from repro.engine_exec.shm import SharedMatrixPool, detach_segments
from repro.serve.cache import (
    DEFAULT_CACHE_ENTRIES,
    ResultCache,
    normalize_query,
)
from repro.sql.catalog import Database
from repro.sql.table import Table
from repro.tsdb.adapter import register_store
from repro.tsdb.storage import TimeSeriesStore


@dataclass
class ServedResult:
    """One request's outcome plus its serving metadata.

    ``version`` is the store version observed when the request started
    — the version the result is correct *at*.  ``snapshot`` is the
    pinned read view the request ran against (holding it keeps that
    version's bytes reachable, which the parity tests use to re-verify
    mid-ingest answers after quiesce).  ``cached`` marks a result-cache
    hit; ``seconds`` is the serving wall time including queueing inside
    the worker pool.
    """

    kind: str                    # "sql" | "explain" | "drill_down"
    value: Any                   # Table for sql, ScoreTable for explain
    version: Any
    cached: bool
    seconds: float
    snapshot: TimeSeriesStore

    @property
    def table(self) -> Table:
        """The result as a relational table (Score Tables convert)."""
        if isinstance(self.value, Table):
            return self.value
        return self.value.to_table()


class _VersionState:
    """Everything the server amortises across requests at one version."""

    def __init__(self, version: Any, snapshot: TimeSeriesStore,
                 group_by: str, columnar: bool) -> None:
        self.version = version
        self.snapshot = snapshot
        self.db = Database(columnar=columnar)
        register_store(self.db, snapshot)
        self._group_by = group_by
        self._families: FamilySet | None = None
        self._shm_pool: SharedMatrixPool | None = None
        self._shm_jobs: dict[Hashable, list[ShmJob]] = {}
        self._lock = threading.Lock()
        self._inflight = 0
        self._retired = False
        self._closed = False

    # -- request lifetime ----------------------------------------------
    def acquire(self) -> None:
        with self._lock:
            self._inflight += 1

    def release(self) -> None:
        close_now = False
        with self._lock:
            self._inflight -= 1
            close_now = self._retired and self._inflight == 0 \
                and not self._closed
            if close_now:
                self._closed = True
        if close_now:
            self._close_shm()

    def retire(self) -> list[str]:
        """Mark superseded; close shm immediately when idle.

        Returns the segment names that retired (for a best-effort
        worker-side detach sweep); an empty list when requests are still
        in flight — the last one out closes the segments instead.
        """
        names: list[str] = []
        close_now = False
        with self._lock:
            self._retired = True
            close_now = self._inflight == 0 and not self._closed
            if close_now:
                self._closed = True
                if self._shm_pool is not None:
                    names = self._shm_pool.segment_names
        if close_now:
            self._close_shm()
        return names

    def _close_shm(self) -> None:
        if self._shm_pool is not None:
            self._shm_pool.close()

    # -- amortised per-version artifacts -------------------------------
    def families(self) -> FamilySet:
        with self._lock:
            if self._families is None:
                self._families = families_from_store(
                    self.snapshot, group_by=self._group_by)
            return self._families

    def shm_jobs(self, key: Hashable, hypotheses: Sequence) -> list[ShmJob]:
        """Jobs for a hypothesis set, publishing matrices at most once.

        The first request of a given explain shape copies the batch
        groups' Y/Z/X matrices into shared memory; every later request
        at this version replays the same refs.  Callers share the
        returned list — jobs are immutable tuples and nobody mutates it.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"version state {self.version} already retired")
            jobs = self._shm_jobs.get(key)
            if jobs is None:
                if self._shm_pool is None:
                    self._shm_pool = SharedMatrixPool()
                jobs = share_shm_jobs(hypotheses, self._shm_pool)
                self._shm_jobs[key] = jobs
            return jobs

    @property
    def shm_segments(self) -> int:
        with self._lock:
            pool = self._shm_pool
            return pool.n_segments if pool is not None else 0


class QueryServer:
    """Long-lived concurrent serving front end over one store.

    Parameters
    ----------
    store:
        The telemetry store to serve — a plain ``TimeSeriesStore`` or
        the sharded concurrent tier.  Snapshots pin each request to the
        version observed at its start.
    n_workers:
        Size of the request worker pool (threads).
    cache_entries:
        Bound of the version-keyed result cache.
    keep_versions:
        How many recent version states stay warm.  Older states retire
        (their shared-memory segments are unlinked once idle); their
        cached results were already swept by the version bump.
    group_by:
        Family grouping for ``explain``/``drill_down`` (as in
        :class:`~repro.core.engine.ExplainItSession`).
    backend / rank_workers / transfer:
        Default execution knobs for ranking requests; per-request
        overrides are accepted by :meth:`explain` / :meth:`drill_down`.
        ``backend="process"`` with ``transfer="shm"`` engages the
        per-version shared-memory publication and a long-lived process
        pool of ``rank_workers`` workers.
    columnar:
        Forwarded to each per-version :class:`~repro.sql.Database`.
    """

    def __init__(self, store, n_workers: int = 8,
                 cache_entries: int = DEFAULT_CACHE_ENTRIES,
                 keep_versions: int = 2,
                 group_by: str = "name",
                 backend: str | None = None,
                 rank_workers: int = 4,
                 transfer: str = "shm",
                 columnar: bool = True) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if keep_versions < 1:
            raise ValueError(
                f"keep_versions must be >= 1, got {keep_versions}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
        self._store = store
        self._group_by = group_by
        self._columnar = columnar
        self._default_backend = backend
        self._rank_workers = rank_workers
        self._default_transfer = transfer
        self._keep_versions = keep_versions
        self._cache = ResultCache(cache_entries)
        self._pool = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="repro-serve")
        self._procs: ProcessPoolExecutor | None = None
        self._states: dict[Any, _VersionState] = {}
        self._state_lock = threading.Lock()
        self._closed = False
        self._requests = {"sql": 0, "explain": 0, "drill_down": 0}
        self._started = time.monotonic()
        self._unsubscribe = None
        add_listener = getattr(store, "add_version_listener", None)
        if add_listener is not None:
            # Eager sweep: ingest bumping the version drops every cached
            # result from superseded versions at once.  The cache is a
            # lock-order leaf, so this is safe under shard locks.
            add_listener(self._cache.evict_superseded)
            remove = getattr(store, "remove_version_listener", None)
            if remove is not None:
                self._unsubscribe = \
                    lambda: remove(self._cache.evict_superseded)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the pools and release every per-version resource."""
        if self._closed:
            return
        self._closed = True
        if self._unsubscribe is not None:
            self._unsubscribe()
        self._pool.shutdown(wait=True)
        with self._state_lock:
            states = list(self._states.values())
            self._states.clear()
        for state in states:
            state.retire()
        if self._procs is not None:
            self._procs.shutdown(wait=True)
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
        return self.submit_sql(query).result()

    def submit_sql(self, query: str) -> "Future[ServedResult]":
        """Enqueue a SQL request on the worker pool."""
        self._check_open()
        started = time.perf_counter()
        return self._pool.submit(self._run_sql, query, started)

    def explain(self, target: str, scorer: Any = "L2-P50",
                condition: Any = None,
                search: Iterable[str] | None = None,
                exclude: Iterable[str] = (),
                top_k: int = DEFAULT_TOP_K,
                backend: str | None = None,
                transfer: str | None = None) -> ScoreTable:
        """Rank candidate causes for ``target`` (Algorithm 1, served)."""
        return self.submit_explain(
            target, scorer=scorer, condition=condition, search=search,
            exclude=exclude, top_k=top_k, backend=backend,
            transfer=transfer).result().value

    def submit_explain(self, target: str, scorer: Any = "L2-P50",
                       condition: Any = None,
                       search: Iterable[str] | None = None,
                       exclude: Iterable[str] = (),
                       top_k: int = DEFAULT_TOP_K,
                       backend: str | None = None,
                       transfer: str | None = None,
                       kind: str = "explain") -> "Future[ServedResult]":
        self._check_open()
        started = time.perf_counter()
        return self._pool.submit(
            self._run_explain, kind, target, scorer, condition,
            None if search is None else tuple(search), tuple(exclude),
            top_k,
            self._default_backend if backend is None else backend,
            self._default_transfer if transfer is None else transfer,
            started)

    def drill_down(self, target: str, families: Sequence[str],
                   scorer: Any = "L2-P50", top_k: int = DEFAULT_TOP_K,
                   backend: str | None = None,
                   transfer: str | None = None) -> ScoreTable:
        """Re-rank within a narrowed search space (the §5.4 workflow)."""
        return self.submit_explain(
            target, scorer=scorer, search=families, top_k=top_k,
            backend=backend, transfer=transfer,
            kind="drill_down").result().value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Serving counters: requests, cache behaviour, warm state."""
        with self._state_lock:
            versions = sorted(self._states)
            segments = sum(s.shm_segments for s in self._states.values())
            requests = dict(self._requests)
        return {
            "requests": requests,
            "cache": self._cache.stats.as_dict(),
            "store_version": self._store.version,
            "warm_versions": versions,
            "shm_segments": segments,
            "uptime_seconds": time.monotonic() - self._started,
        }

    @property
    def cache(self) -> ResultCache:
        return self._cache

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("QueryServer is closed")

    def _count(self, kind: str) -> None:
        # Request bodies run on pool threads, and ``+=`` on a dict slot
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
                state = _VersionState(version, snapshot,
                                      self._group_by, self._columnar)
                self._states[version] = state
                # Lazy sweep for stores without a version-bump hook (the
                # hooked path already swept when ingest bumped).
                self._cache.evict_superseded(version)
                retired_names = self._retire_old_locked(version)
            else:
                retired_names = []
            state.acquire()
        if retired_names:
            self._broadcast_detach(retired_names)
        return state

    def _retire_old_locked(self, current: Any) -> list[str]:
        """Retire all but the newest ``keep_versions`` states."""
        versions = sorted(self._states)
        names: list[str] = []
        while len(versions) > self._keep_versions:
            oldest = versions.pop(0)
            if oldest == current:
                continue
            names.extend(self._states.pop(oldest).retire())
        return names

    def _broadcast_detach(self, names: list[str]) -> None:
        """Best-effort: ask pool workers to unmap retired segments."""
        if self._procs is None:
            return
        for _ in range(self._rank_workers):
            try:
                self._procs.submit(detach_segments, names)
            except RuntimeError:        # pool already shut down
                return

    def _process_pool(self) -> ProcessPoolExecutor:
        with self._state_lock:
            if self._procs is None:
                self._procs = ProcessPoolExecutor(
                    max_workers=self._rank_workers)
            return self._procs

    # -- request bodies (run on the worker pool) ------------------------
    def _run_sql(self, query: str, started: float) -> ServedResult:
        self._count("sql")
        key = ("sql", normalize_query(query), self._columnar)
        state = self._pin()
        try:
            hit = self._cache.get(key, state.version)
            if hit is not None:
                return ServedResult(
                    kind="sql", value=hit, version=state.version,
                    cached=True, seconds=time.perf_counter() - started,
                    snapshot=state.snapshot)
            table = state.db.sql(query)
            self._cache.put(key, state.version, table)
            return ServedResult(
                kind="sql", value=table, version=state.version,
                cached=False, seconds=time.perf_counter() - started,
                snapshot=state.snapshot)
        finally:
            state.release()

    def _run_explain(self, kind: str, target: str, scorer: Any,
                     condition: Any, search: tuple | None, exclude: tuple,
                     top_k: int, backend: str | None, transfer: str,
                     started: float) -> ServedResult:
        self._count(kind)
        # Only plain-data request shapes are cacheable; a caller passing
        # a live Scorer or FeatureFamily object gets a fresh run.
        cacheable = isinstance(scorer, str) \
            and (condition is None or isinstance(condition, str))
        key = ("explain", target, scorer, condition, search, exclude,
               top_k, backend, transfer if backend == "process" else None)
        state = self._pin()
        try:
            if cacheable:
                hit = self._cache.get(key, state.version)
                if hit is not None:
                    return ServedResult(
                        kind=kind, value=hit, version=state.version,
                        cached=True, seconds=time.perf_counter() - started,
                        snapshot=state.snapshot)
            table = self._rank(state, target, scorer, condition, search,
                               exclude, top_k, backend, transfer,
                               shareable=cacheable)
            if cacheable:
                self._cache.put(key, state.version, table)
            return ServedResult(
                kind=kind, value=table, version=state.version,
                cached=False, seconds=time.perf_counter() - started,
                snapshot=state.snapshot)
        finally:
            state.release()

    def _rank(self, state: _VersionState, target: str, scorer: Any,
              condition: Any, search: tuple | None, exclude: tuple,
              top_k: int, backend: str | None, transfer: str,
              shareable: bool) -> ScoreTable:
        families = state.families()
        hypotheses = generate_hypotheses(
            families, target, condition=condition, search=search,
            exclude=exclude)
        if backend == "process" and transfer == "shm" and shareable:
            jobs = state.shm_jobs(
                (target, condition, search, exclude), hypotheses)
            executor = HypothesisExecutor(
                n_workers=self._rank_workers, backend="process",
                transfer="shm")
            report = executor.run(hypotheses, scorer=scorer, top_k=top_k,
                                  shm_jobs=jobs,
                                  process_pool=self._process_pool())
            return report.score_table
        return rank_families(hypotheses, scorer=scorer, top_k=top_k,
                             backend=backend, n_workers=self._rank_workers,
                             transfer=transfer)
