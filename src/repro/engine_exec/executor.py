"""Hypothesis executor: score a search space on one of two backends (§4).

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
- ``"process"`` — one hypothesis per job across a process pool.  Each
  batch group's matrices are placed into a
  :mod:`multiprocessing.shared_memory` segment once and the jobs carry
  tiny zero-copy handles (:mod:`repro.engine_exec.shm`).

:meth:`HypothesisExecutor.score` is the one entry point.  Its scores are
aligned with the hypothesis list by position, so a caller ranks them
with :func:`~repro.scoring.table.build_score_table` and gets a Score
Table that is bitwise identical whichever backend ran.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine_exec.accounting import SerializationAccounting
from repro.engine_exec.batch import execute_batches, plan_batches
from repro.engine_exec.shm import MatrixRef, SharedMatrixPool, resolve_refs
from repro.scoring.base import Scorer

if TYPE_CHECKING:
    from repro.core.hypothesis import Hypothesis

#: Recognised values for ``HypothesisExecutor(backend=...)``.
BACKENDS = (None, "process")


#: One process-pool job: ``(input position, X ref, Y ref, Z ref-or-None)``
#: — all that crosses the process boundary.  Jobs are emitted
#: group-wise; the position restores input order.
ShmJob = tuple[int, MatrixRef, MatrixRef, MatrixRef | None]


def _score_from_refs(scorer: Scorer, job: ShmJob
                     ) -> tuple[int, float, float, float]:
    """Process-pool worker: score one hypothesis from its shm refs.

    Returns ``(input position, score, seconds, scoring seconds)`` — the
    wall time of the whole job, mapping included, and the pure scoring
    share of it for the parent's accounting.  Module-level so it
    pickles; the scorer rides along in a ``functools.partial``.
    """
    start = time.perf_counter()
    index, *refs = job
    x, y, z = resolve_refs(refs)
    score_start = time.perf_counter()
    value = scorer.score(x, y, z)
    end = time.perf_counter()
    return index, float(value), end - start, end - score_start


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
    backend:
        One of :data:`BACKENDS`.  Both produce bitwise-identical scores;
        they differ only in scheduling (see the module docstring).
    """

    def __init__(self, n_workers: int = 4,
                 backend: str | None = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.n_workers = n_workers
        self.backend = backend

    def score(self, hypotheses: Sequence[Hypothesis], scorer: Scorer,
              shm_jobs: Sequence[ShmJob] | None = None,
              process_pool: ProcessPoolExecutor | None = None,
              accounting: SerializationAccounting | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(scores, seconds, attributed)`` aligned with ``hypotheses``.

        ``seconds[i]`` is hypothesis ``i``'s score time; ``attributed[i]``
        is True when that is an equal share of a stacked in-process call
        rather than an individually measured wall time (every pool job is
        measured), so Figure 10-style max aggregates should treat those
        rows as group-level observations.

        ``accounting`` collects the §6.2 transfer and scoring times of
        whichever transfer the backend pays.  ``shm_jobs`` and
        ``process_pool`` are the serving tier's request-spanning hooks
        (only meaningful for ``backend="process"``): ``shm_jobs`` replays
        matrices already published with :func:`share_shm_jobs` instead
        of re-copying them, and ``process_pool`` reuses a long-lived pool
        instead of forking one per call.  The caller owns the lifetime
        of both — this method never closes them.
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

        With ``jobs=None`` (the one-shot case) matrices are published
        through a run-scoped :class:`SharedMatrixPool` that is closed —
        segments unlinked — when the run ends.  A caller that passes
        pre-shared ``jobs`` (see :func:`share_shm_jobs`) owns the backing
        pool, so its segments survive this run and can serve the next
        request without another copy-in; likewise a provided ``procs``
        pool is reused, not shut down.
        """
        own_pool = None
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
