"""Execution substrate: batched hypothesis scoring (§4, §6.2).

The paper's deployment runs one Spark executor per hypothesis, each
talking to a local Python scikit kernel over gRPC.  "For feature
matrices in this size range, a hypothesis can be scored easily on one
machine", so the reproduction keeps the *hypothesis* as the unit of
work and scores it on one path:

- :mod:`repro.engine_exec.batch` —
  :func:`~repro.engine_exec.batch.plan_batches` groups hypotheses by
  their shared (Y, Z) matrices and
  :func:`~repro.engine_exec.batch.execute_batches` scores each group in
  stacked numpy operations through the scorer's ``prepare`` and
  ``score_prepared``, returning scores and per-hypothesis times aligned
  with the hypothesis list by position.
- :class:`~repro.engine_exec.accounting.SerializationAccounting` —
  passed to ``execute_batches(accounting=...)``, measures the matrix
  transfer share of scoring time, the §6.2 instrumentation that found
  ~25% overhead for univariate scorers and ~5% for joint scorers.
- Broadcast-join hypothesis construction lives in
  :func:`repro.core.hypothesis.generate_hypotheses`: Y and Z are built
  once and shared (not copied) across every X hypothesis — which is
  exactly the structure ``plan_batches`` recovers by identity grouping.

Callers rank the scores through
:func:`repro.scoring.table.build_score_table`.  The package sits below
:mod:`repro.core.ranking` (which calls it) and imports nothing from
:mod:`repro.core` at run time.
"""

from repro.engine_exec.accounting import SerializationAccounting
from repro.engine_exec.batch import (
    HypothesisBatch,
    execute_batches,
    plan_batches,
)

__all__ = [
    "SerializationAccounting",
    "HypothesisBatch",
    "plan_batches",
    "execute_batches",
]
