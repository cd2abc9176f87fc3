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
  built**: only the families whose member series were written are
  re-aligned (the store's views log what was written), every other
  family is reused as the same object, and each request shape's last
  answer — hypotheses, scores, p-values and ranking — is carried with
  only the positions whose X family was replaced marked for rescoring,
  so an explain after a write re-aligns, re-scores and re-ranks only
  what the write touched — as long as the write leaves the time grid
  in place (one that extends the horizon rebuilds everything); the
  scorer's prepared (Y, Z) target and the scorer itself are carried
  the same way, so a write that leaves the target's families alone
  prepares nothing and no request instantiates a scorer twice;
- rankings are scored in-process by
  :func:`~repro.engine_exec.batch.execute_batches`, the one scoring
  path, against the generation's prepared targets;
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

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.families import (
    FamilyError,
    FamilySet,
    FeatureFamily,
    families_from_store,
)
from repro.core.hypothesis import Hypothesis, generate_hypotheses
from repro.core.ranking import DEFAULT_TOP_K, ScoreTable, build_score_table
from repro.engine_exec.batch import execute_batches
from repro.scoring.base import Scorer, get_scorer
from repro.scoring.table import Ranking, chebyshev_p_values, rank_scores
from repro.serve.cache import normalize_query
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


#: The (score, seconds, p-value) of a hypothesis not scored yet.
_UNKNOWN = (np.nan, np.nan, np.nan)


class _Answer(NamedTuple):
    """One request shape's answer at one generation.

    ``hypotheses`` are what :func:`generate_hypotheses` gives for the
    shape over the generation's families, ``positions`` maps each X
    family name to its position, and ``scores``, ``seconds`` and
    ``p_values`` are by position.  ``stale`` positions had their X
    family replaced (or are new): their values are unknown and must be
    scored.  ``ranking`` ranks the values as they were before the stale
    positions went stale, so rescoring them patches it
    (:meth:`Ranking.rescored`); it is ``None`` when positions moved or
    nothing was ranked yet.
    """

    y: FeatureFamily
    z: FeatureFamily | None
    hypotheses: list[Hypothesis]
    positions: dict[str, int]
    scores: np.ndarray
    seconds: np.ndarray
    p_values: np.ndarray
    stale: frozenset[int]
    ranking: Ranking | None


def _new_answer(families: FamilySet, shape: tuple,
                hypotheses: list[Hypothesis],
                known: dict[FeatureFamily, tuple]) -> _Answer:
    """An answer for ``hypotheses`` of ``shape``: the values ``known``
    holds for an X are taken, the rest are stale."""
    target, condition = shape[:2]
    rows = [known.get(h.x, _UNKNOWN) for h in hypotheses]
    scores, seconds, p_values = np.array(
        rows, dtype=np.float64).reshape(-1, 3).T.copy()
    return _Answer(
        families[target],
        None if condition is None else families[condition],
        hypotheses, {h.name: i for i, h in enumerate(hypotheses)},
        scores, seconds, p_values,
        frozenset(i for i, row in enumerate(rows) if row is _UNKNOWN), None)


def _known(answer: _Answer) -> dict[FeatureFamily, tuple]:
    """``answer``'s known values by X family."""
    return {h.x: (score, elapsed, p) for i, (h, score, elapsed, p) in
            enumerate(zip(answer.hypotheses, answer.scores.tolist(),
                          answer.seconds.tolist(), answer.p_values.tolist()))
            if i not in answer.stale}


class _Generation:
    """The explain work of one version that a newer version may reuse.

    Its family set, the last answer of each request shape (``answers``,
    keyed ``(target, condition, search, exclude, scorer registry
    name)``), the scorers' prepared (Y, Z) targets (keyed by
    ``(scorer registry name, Y, Z)``) and the scorers themselves (keyed
    by registry name) — every answer is over this
    generation's families, and :class:`FeatureFamily` hashes by
    identity, so a target key matches only the very same families.
    An answer is dropped only when its Y or Z family is replaced
    (:meth:`inherit`), so every shape asked keeps costing what a write
    touched.  It holds no snapshot or database, so the server's
    reference to the latest built generation keeps no other per-version
    state alive.
    """

    def __init__(self) -> None:
        self.families: FamilySet | None = None
        self.answers: dict[tuple, _Answer] = {}
        self.targets: dict[tuple, Any] = {}
        self.scorers: dict[str, Scorer] = {}
        # guards ``answers``, ``targets`` and ``scorers``
        self.lock = threading.Lock()

    def inherit(self, older: "_Generation", families: FamilySet) -> None:
        """Carry ``older``'s answers, prepared targets and scorers over
        to ``families``, built with ``previous=older.families``.

        After a refresh (``families.origin.realigned`` names the
        re-aligned families) an answer keeps its hypothesis list, with
        each replaced X swapped for its new family and marked stale: it
        costs what the refresh re-aligned.  After a full build every
        answer is regenerated, keeping the values of the hypotheses that
        survived as objects.  Either way an answer or target over a
        replaced Y or Z is dropped.
        """
        realigned = families.origin.realigned
        if realigned is not None:
            replaced = {older.families[name] for name in realigned}
        else:
            replaced = set(older.families).difference(families)
        with older.lock:
            answers = list(older.answers.items())
            targets = [(key, target) for key, target in older.targets.items()
                       if replaced.isdisjoint(key[1:])]
            scorers = dict(older.scorers)
        carried = []
        for shape, answer in answers:
            if answer.y in replaced or answer.z in replaced:
                continue
            if realigned is not None:
                answer = _refreshed(answer, families, realigned)
            else:
                answer = _rebuilt(answer, families, shape)
            if answer is not None:
                carried.append((shape, answer))
        with self.lock:
            self.answers.update(carried)
            self.targets.update(targets)
            self.scorers.update(scorers)

    def answer(self, shape: tuple) -> _Answer:
        """``shape``'s answer: the carried one, or one built now whose
        values are taken from the other answers of the same scorer, Y
        and Z where they know the X."""
        with self.lock:
            answer = self.answers.get(shape)
            if answer is not None:
                return answer
            others = list(self.answers.items())
        target, condition, search, exclude, scorer = shape
        hypotheses = generate_hypotheses(
            self.families, target, condition=condition, search=search,
            exclude=exclude)
        y = self.families[target]
        z = None if condition is None else self.families[condition]
        known: dict[FeatureFamily, tuple] = {}
        for key, other in others:
            if key[-1] == scorer and other.y is y and other.z is z:
                known.update(_known(other))
        return _new_answer(self.families, shape, hypotheses, known)

    def keep(self, shape: tuple, answer: _Answer) -> None:
        with self.lock:
            self.answers[shape] = answer

    def prepared(self, scorer: str) -> "_PreparedTargets":
        """``scorer``'s prepared targets, as the executor's memo."""
        return _PreparedTargets(self, scorer)

    def scorer(self, name: str) -> Scorer:
        """The scorer registered as ``name``, instantiated on first use
        and carried to newer generations with the targets it prepared."""
        with self.lock:
            scorer = self.scorers.get(name)
            if scorer is None:
                scorer = self.scorers[name] = get_scorer(name)
            return scorer


def _refreshed(answer: _Answer, families: FamilySet,
               realigned: tuple[str, ...]) -> _Answer:
    """``answer`` over ``families``, whose ``realigned`` families are
    new objects: same positions, each replaced X swapped and stale."""
    positions = answer.positions
    stale = [positions[name] for name in realigned if name in positions]
    if not stale:
        return answer
    hypotheses = list(answer.hypotheses)
    for i in stale:
        hypotheses[i] = Hypothesis(families[hypotheses[i].name], answer.y,
                                   answer.z)
    return answer._replace(hypotheses=hypotheses,
                           stale=answer.stale.union(stale))


def _rebuilt(answer: _Answer, families: FamilySet,
             shape: tuple) -> _Answer | None:
    """``answer`` regenerated over a fully built ``families`` (the
    candidate list may have changed), keeping the values of every
    hypothesis whose X survived; ``None`` when the shape no longer
    resolves."""
    target, condition, search, exclude = shape[:4]
    try:
        hypotheses = generate_hypotheses(
            families, target, condition=condition, search=search,
            exclude=exclude, memo={(h.x, h.y, h.z): h
                                   for h in answer.hypotheses})
    except FamilyError:
        return None
    return _new_answer(families, shape, hypotheses, _known(answer))


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
    of the latest generation it built at any version, single-flight
    under ``build_lock``.
    """

    def __init__(self, version: Any, snapshot: StoreView) -> None:
        self.version = version
        self.snapshot = snapshot
        self.db = Database()
        register_store(self.db, snapshot)
        self.generation = _Generation()
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
        Size of the request worker pool (threads).
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
        self._group_by = group_by
        self._cache = VersionedCache(cache_entries)
        self._pool = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="repro-serve")
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
        """Drain the worker pool and drop every per-version state."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._state_lock:
            self._states.clear()
            self._latest = None
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
                # Drop all but the newest states — never the one just
                # created, should it be a late-arriving older version.
                for old in sorted(self._states)[:-KEEP_VERSIONS]:
                    if old != version:
                        del self._states[old]
        return state

    # -- request bodies (run on the worker pool) ------------------------
    def _serve(self, kind: str, key: Hashable | None, started: float,
               compute) -> ServedResult:
        """Pin a version, answer from the result cache or ``compute(state)``.

        ``key=None`` marks a request shape that is not cacheable.
        """
        state = self._pin()
        value = None if key is None else self._cache.get(key, state.version)
        cached = value is not None
        if not cached:
            value = compute(state)
            if key is not None:
                self._cache.put(key, state.version, value)
        return ServedResult(
            kind=kind, value=value, version=state.version,
            cached=cached, seconds=time.perf_counter() - started,
            snapshot=state.snapshot)

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
        reuses, as the same objects, the families none of whose members
        was written since; the new generation inherits ``latest``'s
        answers (:meth:`_Generation.inherit`), then becomes the latest
        itself — so at most one generation outlives the dropped states.
        What was written comes from the store's write log when it
        reaches back to ``latest``'s version and from comparing columns
        by identity otherwise (``latest`` newer than this state, or too
        many versions ago), so reuse is exact whichever version
        ``latest`` came from.
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

        A shareable (cacheable) request shape starts from its answer in
        the generation — carried from an older version or built from
        the other answers' values — and scores only its stale positions:
        by the ``Scorer`` contract a score depends on the (X, Y, Z)
        matrices alone, so the table, whose ranking the rescored rows
        patch (:meth:`Ranking.rescored`), is bitwise the one a cold run
        builds.  The stale positions are scored against the (Y, Z)
        target the generation holds prepared, prepared (and kept) only
        when Y or Z was replaced, by the scorer the generation holds.
        A live scorer or family object scores every hypothesis.
        """
        generation = self._generation(state)
        if not shareable:
            hypotheses = generate_hypotheses(
                generation.families, target, condition=condition,
                search=search, exclude=exclude)
            started = time.perf_counter()
            if isinstance(scorer, str):
                scorer = get_scorer(scorer)
            scores, seconds, p_values = _score(hypotheses, scorer, None)
            return build_score_table(
                hypotheses, scores, seconds, scorer.name, top_k,
                time.perf_counter() - started, p_values=p_values)
        shape = (target, condition, search, exclude, scorer.lower())
        answer = generation.answer(shape)
        started = time.perf_counter()
        scorer = generation.scorer(shape[-1])
        if not answer.hypotheses:
            return build_score_table([], [], [], scorer.name, top_k,
                                     time.perf_counter() - started)
        if answer.stale or answer.ranking is None:
            todo = sorted(answer.stale)
            scores, seconds, p_values = (
                answer.scores.copy(), answer.seconds.copy(),
                answer.p_values.copy())
            if todo:
                fresh = [answer.hypotheses[i] for i in todo]
                scores[todo], seconds[todo], p_values[todo] = _score(
                    fresh, scorer, generation.prepared(shape[-1]))
            if answer.ranking is None:
                ranking = rank_scores(answer.hypotheses, scores, seconds,
                                      p_values)
            else:
                ranking = answer.ranking.rescored(todo, scores, seconds,
                                                  p_values)
            answer = answer._replace(scores=scores, seconds=seconds,
                                     p_values=p_values, stale=frozenset(),
                                     ranking=ranking)
            generation.keep(shape, answer)
        return answer.ranking.table(scorer.name, top_k,
                                    time.perf_counter() - started)


def _score(hypotheses: Sequence[Hypothesis], scorer: Scorer,
           targets: _PreparedTargets | None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(scores, seconds, p-values)`` of ``hypotheses``."""
    scores, seconds, _ = execute_batches(hypotheses, scorer, targets=targets)
    return scores, seconds, chebyshev_p_values(hypotheses, scores)
