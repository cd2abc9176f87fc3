"""Execution substrate: batched and parallel hypothesis scoring (§4, §6.2).

The paper's deployment runs one Spark executor per hypothesis, each
talking to a local Python scikit kernel over gRPC.  The reproduction
keeps the *hypothesis* as the unit of work and offers two ways to
schedule it, behind ``backend=``:

- :mod:`repro.engine_exec.batch` — ``backend=None``, the default and
  the only in-process path:
  :func:`~repro.engine_exec.batch.plan_batches` groups hypotheses by
  their shared (Y, Z) matrices and
  :func:`~repro.engine_exec.batch.execute_batches` scores each group in
  stacked numpy operations through the scorer's ``score_batch``.
- :class:`~repro.engine_exec.executor.HypothesisExecutor` — runs either
  backend and records per-hypothesis wall time.  ``backend="process"``
  scores one hypothesis per job across a process pool whose matrix
  transfer is selected by ``transfer=`` — ``"shm"`` (default) for
  zero-copy shared-memory segments, ``"pickle"`` for the faithful §6.2
  per-hypothesis serialisation.
- :mod:`repro.engine_exec.shm` — the zero-copy transfer tier:
  :class:`~repro.engine_exec.shm.SharedMatrixPool` places each batch
  group's (Y, Z, stacked X) matrices into one
  ``multiprocessing.shared_memory`` segment; workers attach by name and
  score read-only views without copying.
- :class:`~repro.engine_exec.accounting.SerializationAccounting` —
  measures the matrix transfer share of scoring time under each
  ``transfer`` mode, the §6.2 instrumentation that found ~25% overhead
  for univariate scorers and ~5% for joint scorers.
- Broadcast-join hypothesis construction lives in
  :func:`repro.core.hypothesis.generate_hypotheses`: Y and Z are built
  once and shared (not copied) across every X hypothesis — which is
  exactly the structure ``plan_batches`` recovers by identity grouping.

Every path returns scores aligned with the hypothesis list by position
and ranks them through :func:`repro.scoring.table.build_score_table`, so
Score Tables are bitwise identical across backends.  The package sits
below :mod:`repro.core.ranking` (which calls it) and imports nothing
from :mod:`repro.core` at run time.
"""

from repro.engine_exec.accounting import TRANSFERS, SerializationAccounting
from repro.engine_exec.batch import (
    HypothesisBatch,
    execute_batches,
    plan_batches,
)
from repro.engine_exec.executor import (
    BACKENDS,
    ExecutionReport,
    HypothesisExecutor,
)
from repro.engine_exec.shm import MatrixRef, SharedMatrixPool

__all__ = [
    "BACKENDS",
    "TRANSFERS",
    "HypothesisExecutor",
    "ExecutionReport",
    "SerializationAccounting",
    "HypothesisBatch",
    "plan_batches",
    "execute_batches",
    "MatrixRef",
    "SharedMatrixPool",
]
