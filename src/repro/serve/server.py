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
  so materialised tables and scan caches amortise
  across every request at that version instead of being rebuilt
  per query;
- a new version's explain state is a **refresh of the latest one
  built**: a family whose member columns are the identical frozen
  columns is reused as the same object, and a hypothesis whose ``(X, Y,
  Z)`` families are all reused keeps its score, so an explain after a
  write re-aligns and re-scores only what the write touched — as long
  as the write leaves the time grid in place (one that extends the
  horizon rebuilds everything); the scorer's prepared (Y, Z) target is
  carried the same way, so a write that leaves the target's families
  alone prepares nothing;
- for ``backend="process"`` rankings the state publishes the Y/Z/X
  matrices of the hypotheses it has to score **once per version**
  through the existing :class:`~repro.engine_exec.shm.SharedMatrixPool`
  (:func:`~repro.engine_exec.executor.share_shm_jobs`); a repeat of the
  same scoring work replays the same zero-copy handles into a
  long-lived process pool instead of copying matrices per request; a
  request that finds that pool broken (a worker died) fails, and the
  next one forks a fresh pool;
- a bounded **result cache** — a
  :class:`~repro.versioned.VersionedCache` keyed on the normalized
  query or the explain shape — returns the identical result object for
  repeat requests at the same version, and the first request to observe
  a newer version drops the superseded results: a result computed at
  version ``v`` is never served to a request that observed a later one.

Results must be treated as read-only: cache hits share one
:class:`~repro.sql.table.Table` / score-table object across callers.

The server wraps a :class:`~repro.tsdb.TimeSeriesStore` (or any
:class:`~repro.tsdb.StoreView`): a request pins the store's frozen
per-version view, which is cached per version and read without locks,
so concurrent writers never change what a pinned request sees.
"""

from __future__ import annotations

import operator
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from itertools import compress
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from repro.core.families import FamilySet, families_from_store
from repro.core.hypothesis import Hypothesis, generate_hypotheses
from repro.core.ranking import DEFAULT_TOP_K, ScoreTable, build_score_table
from repro.engine_exec.executor import (
    BACKENDS,
    HypothesisExecutor,
    ShmJob,
    share_shm_jobs,
)
from repro.engine_exec.shm import SharedMatrixPool
from repro.scoring.base import get_scorer
from repro.scoring.table import chebyshev_p_values
from repro.serve.cache import normalize_query
from repro.sql.catalog import Database
from repro.sql.table import Table
from repro.tsdb.adapter import register_store
from repro.tsdb.storage import StoreView
from repro.versioned import DEFAULT_CACHE_ENTRIES, VersionedCache

#: Version states kept warm.  Two, not one: a request that snapshotted
#: just before a bump may pin its (older) state after a newer one
#: exists, and must not retire the state current requests are using.
KEEP_VERSIONS = 2


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
    snapshot: StoreView

    @property
    def table(self) -> Table:
        """The result as a relational table (Score Tables convert)."""
        if isinstance(self.value, Table):
            return self.value
        return self.value.to_table()


_UNKNOWN = (np.nan, np.nan, np.nan)
_FAMILIES = operator.itemgetter(slice(1, None))    # of a score key


class _Generation:
    """The explain work of one version that a newer version may reuse.

    Its family set, the hypotheses built over it (keyed by ``(X, Y, Z)``
    family objects), the scores computed for them (keyed by ``(scorer
    registry name, X, Y, Z)``, each with its seconds and p-value) and
    the scorers' prepared (Y, Z) targets (keyed by ``(scorer registry
    name, Y, Z)``) — :class:`FeatureFamily` hashes by identity, so a key
    matches only the very same families.  It holds no snapshot or
    database, so the server's reference to the latest built generation
    keeps no other per-version state alive.
    """

    def __init__(self) -> None:
        self.families: FamilySet | None = None
        self.hypotheses: dict[tuple, Hypothesis] = {}
        self.scores: dict[tuple, tuple[float, float, float]] = {}
        self.targets: dict[tuple, Any] = {}
        # guards ``hypotheses``, ``scores`` and ``targets``
        self.lock = threading.Lock()

    def inherit(self, older: "_Generation", families: FamilySet) -> None:
        """Take over the hypotheses, scores and prepared targets of
        ``older`` whose families all survived into ``families``.

        Every key of ``older`` is over its own families, so the ones to
        drop are those naming a family of ``older`` that ``families``
        replaced — typically a handful — and the test per key is a C
        membership probe of its families.
        """
        replaced = set(older.families).difference(families)
        with older.lock:
            hypotheses = list(compress(older.hypotheses.items(), map(
                replaced.isdisjoint, older.hypotheses)))
            scores = list(compress(older.scores.items(), map(
                replaced.isdisjoint, map(_FAMILIES, older.scores))))
            targets = list(compress(older.targets.items(), map(
                replaced.isdisjoint, map(_FAMILIES, older.targets))))
        with self.lock:
            self.hypotheses.update(hypotheses)
            self.scores.update(scores)
            self.targets.update(targets)

    def prepared(self, scorer: str) -> "_PreparedTargets":
        """``scorer``'s prepared targets, as the executor's memo."""
        return _PreparedTargets(self, scorer)

    def generate(self, target: str, condition: Any, search: tuple | None,
                 exclude: tuple) -> list[Hypothesis]:
        """:func:`generate_hypotheses` over this generation's families,
        building only the ``(X, Y, Z)`` triples it has not seen."""
        with self.lock:
            return generate_hypotheses(
                self.families, target, condition=condition, search=search,
                exclude=exclude, memo=self.hypotheses)

    def lookup(self, scorer: str, hypotheses: Sequence
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """Known ``(scores, seconds, p-values)`` by position, and the
        positions to score."""
        with self.lock:
            get = self.scores.get
            rows = [get((scorer, h.x, h.y, h.z), _UNKNOWN)
                    for h in hypotheses]
        todo = [i for i, row in enumerate(rows) if row is _UNKNOWN]
        scores, seconds, p_values = np.array(
            rows, dtype=np.float64).reshape(-1, 3).T.copy()
        return scores, seconds, p_values, todo

    def remember(self, scorer: str, hypotheses: Sequence,
                 scores: np.ndarray, seconds: np.ndarray,
                 p_values: np.ndarray) -> None:
        with self.lock:
            for h, score, elapsed, p in zip(hypotheses, scores, seconds,
                                            p_values):
                self.scores[(scorer, h.x, h.y, h.z)] = (
                    float(score), float(elapsed), float(p))


class _PreparedTargets:
    """One scorer's view of a generation's prepared targets, keyed
    ``(Y, Z)`` as :func:`~repro.engine_exec.batch.execute_batches`
    looks them up."""

    def __init__(self, generation: _Generation, scorer: str) -> None:
        self._generation = generation
        self._scorer = scorer

    def get(self, key: tuple) -> Any:
        with self._generation.lock:
            return self._generation.targets.get((self._scorer, *key))

    def __setitem__(self, key: tuple, target: Any) -> None:
        with self._generation.lock:
            self._generation.targets[(self._scorer, *key)] = target


class _VersionState:
    """Everything the server amortises across requests at one version.

    ``generation`` is this version's explain work; the server fills it in
    on the first explain (:meth:`QueryServer._generation`) as a refresh
    of the latest generation it built at any version.

    ``_lock`` guards only the request lifetime (in-flight count,
    retirement); family and shared-memory builds run under
    ``build_lock``, single-flight, so a slow build never blocks
    :meth:`acquire` — which ``_pin`` calls under the server-wide lock.
    """

    def __init__(self, version: Any, snapshot: StoreView) -> None:
        self.version = version
        self.snapshot = snapshot
        self.db = Database()
        register_store(self.db, snapshot)
        self.generation = _Generation()
        self._shm_pool: SharedMatrixPool | None = None
        self._shm_jobs: dict[Hashable, list[ShmJob]] = {}
        self.build_lock = threading.Lock()
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

    def retire(self) -> None:
        """Mark superseded; close shm now when idle, else when the last
        request in flight releases the state."""
        with self._lock:
            self._retired = True
            close_now = self._inflight == 0 and not self._closed
            if close_now:
                self._closed = True
        if close_now:
            self._close_shm()

    def _close_shm(self) -> None:
        if self._shm_pool is not None:
            self._shm_pool.close()

    # -- amortised per-version artifacts -------------------------------
    def shm_jobs(self, key: Hashable, hypotheses: Sequence) -> list[ShmJob]:
        """Jobs for a hypothesis list, publishing matrices at most once.

        The first request to score a given list at this version copies
        its batch groups' Y/Z/X matrices into shared memory; a later
        request for the same list replays the same refs.  Callers share
        the returned list — jobs are immutable tuples and nobody mutates
        it.  Callers hold :meth:`acquire`, so the state cannot close its
        pool while this publishes outside the lifetime lock.
        """
        with self.build_lock:
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
        The telemetry store to serve, a ``TimeSeriesStore`` (or a
        ``StoreView``).  Snapshots pin each request to the
        version observed at its start.
    n_workers:
        Size of the request worker pool (threads).
    cache_entries:
        Bound of the version-keyed result cache.
    group_by:
        Family grouping for ``explain``/``drill_down`` (as in
        :class:`~repro.core.engine.ExplainItSession`).
    backend / rank_workers:
        How ranking requests score: in-process (``None``), or
        ``"process"`` — per-version shared-memory publication replayed
        into a long-lived pool of ``rank_workers`` processes, replaced
        after a request finds it broken.

    The two newest version states stay warm; older ones retire (their
    shared-memory segments are unlinked once idle).
    """

    def __init__(self, store, n_workers: int = 8,
                 cache_entries: int = DEFAULT_CACHE_ENTRIES,
                 group_by: str = "name",
                 backend: str | None = None,
                 rank_workers: int = 4) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
        self._store = store
        self._group_by = group_by
        self._backend = backend
        self._rank_workers = rank_workers
        self._cache = VersionedCache(cache_entries)
        self._pool = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="repro-serve")
        self._procs: ProcessPoolExecutor | None = None
        self._states: dict[Any, _VersionState] = {}
        self._latest: _Generation | None = None     # last one built
        self._state_lock = threading.Lock()
        self._closed = False
        self._requests = {"sql": 0, "explain": 0, "drill_down": 0}
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the pools and release every per-version resource."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._state_lock:
            states = list(self._states.values())
            self._states.clear()
            self._latest = None
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
                top_k: int = DEFAULT_TOP_K) -> ScoreTable:
        """Rank candidate causes for ``target`` (Algorithm 1, served)."""
        return self.submit_explain(
            target, scorer=scorer, condition=condition, search=search,
            exclude=exclude, top_k=top_k).result().value

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
        return self.submit_explain(
            target, scorer=scorer, search=families, top_k=top_k,
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
            "cache": asdict(self._cache.stats),
            "store_version": self._store.version,
            "warm_versions": versions,
            "shm_segments": segments,
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
                state = self._states[version] = _VersionState(
                    version, snapshot)
                # Retire all but the newest states — never the one just
                # created, should it be a late-arriving older version.
                for old in sorted(self._states)[:-KEEP_VERSIONS]:
                    if old != version:
                        self._states.pop(old).retire()
            state.acquire()
        return state

    def _process_pool(self) -> ProcessPoolExecutor:
        with self._state_lock:
            if self._procs is None:
                self._procs = ProcessPoolExecutor(
                    max_workers=self._rank_workers)
            return self._procs

    def _drop_process_pool(self, pool: ProcessPoolExecutor) -> None:
        """Forget a broken pool so the next request forks a fresh one.

        Only the pool that broke is dropped: a concurrent request may
        already have replaced it.  Published segments are untouched —
        the fresh workers attach to them by name.
        """
        with self._state_lock:
            if self._procs is pool:
                self._procs = None
        pool.shutdown(wait=False)

    # -- request bodies (run on the worker pool) ------------------------
    def _serve(self, kind: str, key: Hashable | None, started: float,
               compute) -> ServedResult:
        """Pin a version, answer from the result cache or ``compute(state)``.

        ``key=None`` marks a request shape that is not cacheable.
        """
        state = self._pin()
        try:
            value = None if key is None \
                else self._cache.get(key, state.version)
            cached = value is not None
            if not cached:
                value = compute(state)
                if key is not None:
                    self._cache.put(key, state.version, value)
            return ServedResult(
                kind=kind, value=value, version=state.version,
                cached=cached, seconds=time.perf_counter() - started,
                snapshot=state.snapshot)
        finally:
            state.release()

    def _run_sql(self, query: str, started: float) -> ServedResult:
        self._count("sql")
        return self._serve("sql", ("sql", normalize_query(query)), started,
                           lambda state: state.db.sql(query))

    def _run_explain(self, kind: str, target: str, scorer: Any,
                     condition: Any, search: tuple | None, exclude: tuple,
                     top_k: int, started: float) -> ServedResult:
        self._count(kind)
        # Only plain-data request shapes are cacheable; a caller passing
        # a live Scorer or FeatureFamily object gets a fresh run.
        cacheable = isinstance(scorer, str) \
            and (condition is None or isinstance(condition, str))
        key = ("explain", target, scorer, condition, search, exclude, top_k)
        return self._serve(
            kind, key if cacheable else None, started,
            lambda state: self._rank(state, target, scorer, condition,
                                     search, exclude, top_k,
                                     shareable=cacheable))

    def _generation(self, state: _VersionState) -> _Generation:
        """``state``'s generation, its family set built on first use.

        The build refreshes the latest generation the server built (at
        any version): ``families_from_store(..., previous=latest.families)``
        reuses, as the same objects, the families whose member columns
        are the identical frozen columns; the new generation inherits
        every score of ``latest`` whose ``(X, Y, Z)`` families all
        survived, then becomes the latest itself — so at most one
        generation outlives the retired states.  Reuse is decided by
        identity alone, so it is exact whichever version ``latest``
        came from.
        """
        generation = state.generation
        if generation.families is None:
            with state.build_lock:
                if generation.families is None:
                    with self._state_lock:
                        latest = self._latest
                    families = families_from_store(
                        state.snapshot, group_by=self._group_by,
                        previous=latest.families if latest else None)
                    if latest is not None:
                        generation.inherit(latest, families)
                    generation.families = families
                    with self._state_lock:
                        self._latest = generation
        return generation

    def _rank(self, state: _VersionState, target: str, scorer: Any,
              condition: Any, search: tuple | None, exclude: tuple,
              top_k: int, shareable: bool) -> ScoreTable:
        """Rank at ``state``'s version, scoring only what is not known.

        For shareable (cacheable) shapes, a hypothesis whose ``(X, Y,
        Z)`` families and scorer name match a score this version already
        holds — computed here or inherited — takes that score: by the
        ``Scorer`` contract a score depends on those matrices alone, so
        the table is bitwise the one a cold run builds.  The rest (every
        hypothesis, for a live scorer or family object) go through the
        executor on the configured backend; in-process, a shareable
        request scores them against the (Y, Z) target the generation
        holds prepared, and prepares (and keeps) it only when Y or Z was
        replaced.
        """
        generation = self._generation(state)
        if shareable:
            memo, name = generation, scorer.lower()
        else:                   # a live scorer or family: nothing to reuse
            memo, name = _Generation(), None
            memo.families = generation.families
        hypotheses = memo.generate(target, condition, search, exclude)
        started = time.perf_counter()
        if isinstance(scorer, str):
            scorer = get_scorer(scorer)
        scores, seconds, p_values, todo = memo.lookup(name, hypotheses)
        if todo:
            fresh = [hypotheses[i] for i in todo]
            executor = HypothesisExecutor(
                n_workers=self._rank_workers, backend=self._backend)
            jobs = pool = None
            if self._backend == "process":
                if shareable:
                    jobs = state.shm_jobs(
                        (target, condition, tuple(h.name for h in fresh)),
                        fresh)
                pool = self._process_pool()
            targets = memo.prepared(name) if shareable else None
            try:
                new_scores, new_seconds, _ = executor.score(
                    fresh, scorer, shm_jobs=jobs, process_pool=pool,
                    targets=targets)
            except BrokenProcessPool:
                self._drop_process_pool(pool)
                raise
            new_p = chebyshev_p_values(fresh, new_scores)
            scores[todo] = new_scores
            seconds[todo] = new_seconds
            p_values[todo] = new_p
            memo.remember(name, fresh, new_scores, new_seconds, new_p)
        return build_score_table(hypotheses, scores, seconds, scorer.name,
                                 top_k, time.perf_counter() - started,
                                 p_values=p_values)
