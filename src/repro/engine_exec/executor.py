"""Hypothesis executor: score a search space, report timings (§4).

"For feature matrices in this size range, a hypothesis can be scored
easily on one machine; thus, our unit of parallelisation is the
hypothesis.  This avoids the parallelisation cost and complexity of
distributed machine learning across multiple machines."

Two backends schedule the same scoring work:

- ``None`` (default) — in-process, through the planner of
  :mod:`repro.engine_exec.batch`: hypotheses sharing (Y, Z) are grouped,
  Y/Z-side work is done once per group, and the X-side linear algebra
  runs as stacked numpy calls.  This is the interactive Algorithm 1
  path — many hypotheses, each individually small.
- ``"process"`` — one hypothesis per job across a process pool.  The
  ``transfer`` switch picks how matrices reach the workers: ``"shm"``
  (default) places each batch group's matrices into a
  :mod:`multiprocessing.shared_memory` segment once and ships tiny
  zero-copy handles, while ``"pickle"`` reproduces the paper's §6.2
  per-hypothesis serialisation overhead faithfully.

Both produce scores aligned with the hypothesis list by position and
hand them to :func:`~repro.scoring.table.build_score_table`, so the
Score Table is bitwise identical whichever backend ran.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine_exec.accounting import TRANSFERS, SerializationAccounting
from repro.engine_exec.batch import execute_batches, plan_batches
from repro.engine_exec.shm import MatrixRef, SharedMatrixPool, resolve_ref
from repro.scoring.base import Scorer, get_scorer
from repro.scoring.table import DEFAULT_TOP_K, ScoreTable, build_score_table

if TYPE_CHECKING:
    from repro.core.hypothesis import Hypothesis

#: Recognised values for ``HypothesisExecutor(backend=...)``.
BACKENDS = (None, "process")


@dataclass
class HypothesisTiming:
    """Wall time and score for one hypothesis.

    ``attributed`` marks rows whose ``seconds`` is an equal share of a
    stacked batch call's elapsed time rather than an individually
    measured wall time — Figure 10-style max aggregates should treat
    those as group-level, not per-family, observations.
    """

    family: str
    score: float
    seconds: float
    n_features: int
    attributed: bool = False


@dataclass
class ExecutionReport:
    """Outcome of one scoring run."""

    score_table: ScoreTable
    timings: list[HypothesisTiming]
    wall_seconds: float
    n_workers: int
    accounting: SerializationAccounting | None = None
    backend: str | None = None
    transfer: str | None = None

    def mean_seconds_per_family(self) -> float:
        """Figure 10's 'mean score time per feature family'.

        Meaningful under share attribution too: the mean of equal shares
        equals the mean of the (unobservable) true per-family times.
        """
        if not self.timings:
            return 0.0
        return float(np.mean([t.seconds for t in self.timings]))

    def max_seconds_per_family(self) -> float:
        """Figure 10's 'max score time for a feature family'.

        In-process the per-family times inside a stacked call are equal
        shares, so this collapses toward the mean; check
        :meth:`has_attributed_timings` before reading it as a true max.
        """
        if not self.timings:
            return 0.0
        return float(np.max([t.seconds for t in self.timings]))

    def has_attributed_timings(self) -> bool:
        """True when any timing row is share-attributed, not measured."""
        return any(t.attributed for t in self.timings)


#: One shm scoring job: ``(input position, X ref, Y ref, Z ref-or-None)``
#: — what actually crosses the process boundary under ``transfer="shm"``.
#: Jobs are emitted group-wise; the position restores input order.
ShmJob = tuple[int, MatrixRef, MatrixRef, MatrixRef | None]


def _timed_score(scorer: Scorer, index: int, load
                 ) -> tuple[int, float, float, float]:
    """Score the ``(x, y, z)`` that ``load()`` returns, in a pool worker.

    Returns ``(input position, score, seconds, scoring seconds)`` — the
    wall time of the whole job, loading included, and the pure scoring
    share of it for the parent's accounting.
    """
    start = time.perf_counter()
    x, y, z = load()
    score_start = time.perf_counter()
    value = scorer.score(x, y, z)
    end = time.perf_counter()
    return index, float(value), end - start, end - score_start


def _score_in_process(scorer: Scorer, job: tuple[int, Hypothesis]
                      ) -> tuple[int, float, float, float]:
    """Process-pool worker (``transfer="pickle"``): score one hypothesis.

    Module-level so it pickles; the scorer rides along in a
    ``functools.partial``.
    """
    index, hypothesis = job
    return _timed_score(scorer, index, hypothesis.matrices)


def _score_from_refs(scorer: Scorer, job: ShmJob
                     ) -> tuple[int, float, float, float]:
    """Process-pool worker (``transfer="shm"``): score one hypothesis.

    The job carries only shared-memory handles; the matrices are
    resolved as zero-copy views of segments the parent populated once
    per batch group.
    """
    index, *refs = job
    return _timed_score(scorer, index,
                        lambda: [resolve_ref(ref) for ref in refs])


def share_shm_jobs(hypotheses: Sequence[Hypothesis],
                   pool: SharedMatrixPool) -> list[ShmJob]:
    """Publish all hypothesis matrices into ``pool``; return the jobs.

    Reuses :func:`~repro.engine_exec.batch.plan_batches` so Y and Z
    enter shared memory once per (Y, Z) group with the group's X blocks
    packed behind them.  The returned job list references segments owned
    by ``pool`` and stays valid for exactly the pool's lifetime — the
    serving tier shares one run's matrices *once per store version* and
    replays the same jobs for every repeat request at that version,
    instead of re-copying per request.
    """
    jobs: list[ShmJob] = []
    for batch in plan_batches(hypotheses):
        matrices = [batch.y.matrix]
        if batch.z is not None:
            matrices.append(batch.z.matrix)
        matrices.extend(h.x.matrix for h in batch.hypotheses)
        refs = pool.share_group(matrices)
        y_ref = refs[0]
        z_ref = refs[1] if batch.z is not None else None
        x_refs = refs[2 if batch.z is not None else 1:]
        jobs.extend((i, x_ref, y_ref, z_ref)
                    for i, x_ref in zip(batch.indices, x_refs))
    return jobs


class HypothesisExecutor:
    """Scores a hypothesis list in-process or across a process pool.

    Parameters
    ----------
    n_workers:
        Pool size for ``backend="process"``; no effect in-process, where
        the stacked numpy calls run on the calling thread.
    measure_serialization:
        When True, wrap matrix transfers in
        :class:`~repro.engine_exec.accounting.SerializationAccounting`
        so the report carries bytes-moved and serialise/score shares —
        the §6.2 overhead measurement.  Adds a real round-trip cost
        in-process and under ``transfer="pickle"``; leave False outside
        benchmarks.
    backend:
        One of :data:`BACKENDS`.  Both produce bitwise-identical Score
        Tables; they differ only in scheduling (see the module
        docstring).  In-process timings are equal shares of each stacked
        call, flagged via ``HypothesisTiming.attributed``.
    transfer:
        Matrix transport for ``backend="process"``: ``"shm"`` places
        each batch group's (Y, Z, stacked X) into one shared-memory
        segment and ships tiny :class:`~repro.engine_exec.shm.MatrixRef`
        handles; ``"pickle"`` serialises full matrices per hypothesis.
        No effect in-process (the CLI warns on that combination; this
        constructor only validates the value).
    """

    def __init__(self, n_workers: int = 4,
                 measure_serialization: bool = False,
                 backend: str | None = None,
                 transfer: str = "shm") -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if transfer not in TRANSFERS:
            raise ValueError(
                f"transfer must be one of {TRANSFERS}, got {transfer!r}"
            )
        self.n_workers = n_workers
        self.measure_serialization = measure_serialization
        self.backend = backend
        self.transfer = transfer

    def run(self, hypotheses: Sequence[Hypothesis],
            scorer: Scorer | str = "L2-P50",
            top_k: int = DEFAULT_TOP_K,
            shm_jobs: Sequence[ShmJob] | None = None,
            process_pool: ProcessPoolExecutor | None = None
            ) -> ExecutionReport:
        """Score all hypotheses and build the Score Table.

        ``shm_jobs`` and ``process_pool`` are the serving tier's
        request-spanning hooks (only meaningful for
        ``backend="process"``): ``shm_jobs`` replays matrices already
        published with :func:`share_shm_jobs` instead of re-copying them
        into fresh segments, and ``process_pool`` reuses a long-lived
        pool instead of forking one per run.  The caller owns the
        lifetime of both — this method never closes them.
        """
        if isinstance(scorer, str):
            scorer = get_scorer(scorer)
        accounting = (SerializationAccounting()
                      if self.measure_serialization else None)
        wall_start = time.perf_counter()
        scores, seconds, attributed = self.score(
            hypotheses, scorer, shm_jobs, process_pool, accounting)
        wall = time.perf_counter() - wall_start
        timings = [
            HypothesisTiming(
                family=h.name,
                score=float(scores[i]),
                seconds=float(seconds[i]),
                n_features=h.x.n_features,
                attributed=bool(attributed[i]),
            )
            for i, h in enumerate(hypotheses)
        ]
        return ExecutionReport(
            score_table=build_score_table(hypotheses, scores, seconds,
                                          scorer.name, top_k, wall),
            timings=timings,
            wall_seconds=wall,
            n_workers=self.n_workers,
            accounting=accounting,
            backend=self.backend,
            transfer=self.transfer if self.backend == "process" else None,
        )

    def score(self, hypotheses: Sequence[Hypothesis], scorer: Scorer,
              shm_jobs: Sequence[ShmJob] | None = None,
              process_pool: ProcessPoolExecutor | None = None,
              accounting: SerializationAccounting | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(scores, seconds, attributed)`` aligned with ``hypotheses``.

        The scoring half of :meth:`run`, without the Score Table, for a
        caller that ranks these scores together with others (the serving
        tier scores only the hypotheses a write touched).
        """
        if self.backend is None:
            return execute_batches(hypotheses, scorer, accounting=accounting)
        scores, seconds = self._run_processes(
            hypotheses, scorer, accounting, shm_jobs, process_pool)
        return scores, seconds, np.zeros(len(hypotheses), dtype=bool)

    def _run_processes(self, hypotheses: Sequence[Hypothesis],
                       scorer: Scorer,
                       accounting: SerializationAccounting | None,
                       jobs: Sequence[ShmJob] | None,
                       procs: ProcessPoolExecutor | None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Score one hypothesis per pool job; position-aligned arrays.

        Under ``transfer="shm"`` with ``jobs=None`` (the one-shot case)
        matrices are published through a run-scoped
        :class:`SharedMatrixPool` that is closed — segments unlinked —
        when the run ends.  A caller that passes pre-shared ``jobs``
        (see :func:`share_shm_jobs`) owns the backing pool, so its
        segments survive this run and can serve the next request without
        another copy-in; likewise a provided ``procs`` pool is reused,
        not shut down.
        """
        own_pool = None
        if self.transfer == "pickle":
            if accounting is not None:
                # The round-trip is measured in the parent; restored
                # arrays are bitwise equal so the children can score the
                # originals they receive through pickling.
                for hypothesis in hypotheses:
                    accounting.pickle_round_trip(*hypothesis.matrices())
            worker = partial(_score_in_process, scorer)
            jobs = list(enumerate(hypotheses))
        else:
            if accounting is not None:
                accounting.transfer = "shm"
            if jobs is None:
                own_pool = SharedMatrixPool(accounting=accounting)
                jobs = share_shm_jobs(hypotheses, own_pool)
            worker = partial(_score_from_refs, scorer)
        try:
            if procs is not None:
                outcomes = list(procs.map(worker, jobs))
            else:
                with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
                    outcomes = list(pool.map(worker, jobs))
        finally:
            if own_pool is not None:
                own_pool.close()
        scores = np.empty(len(hypotheses))
        seconds = np.empty(len(hypotheses))
        for index, value, elapsed, score_elapsed in outcomes:
            scores[index] = value
            seconds[index] = elapsed
            if accounting is not None:
                accounting.record_score_time(score_elapsed)
        return scores, seconds
