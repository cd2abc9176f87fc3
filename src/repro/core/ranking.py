"""Hypothesis ranking (§3.5, Figure 4).

``rank_families`` is the core loop of Algorithm 1: score every hypothesis,
sort by decreasing score, return the top-k (default 20, the paper's
default limit) annotated with Chebyshev p-values and multiple-testing
corrections from Appendix A.  The Score Table types are defined in
:mod:`repro.scoring.table` and re-exported here.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.hypothesis import Hypothesis
from repro.engine_exec.batch import execute_batches
from repro.scoring.base import Scorer, get_scorer
from repro.scoring.table import (
    DEFAULT_TOP_K,
    RankedFamily,
    ScoreTable,
    build_score_table,
    ranking_sort_key,
)

__all__ = [
    "DEFAULT_TOP_K",
    "RankedFamily",
    "ScoreTable",
    "build_score_table",
    "rank_families",
    "ranking_sort_key",
]


def rank_families(hypotheses: Sequence[Hypothesis],
                  scorer: Scorer | str = "L2-P50",
                  top_k: int = DEFAULT_TOP_K,
                  backend: str | None = None,
                  n_workers: int = 4,
                  transfer: str = "shm") -> ScoreTable:
    """Score every hypothesis and produce the ranked Score Table.

    Hypotheses sharing (Y, Z) are grouped and each group goes through
    the scorer's ``score_batch`` in stacked numpy calls
    (:func:`~repro.engine_exec.batch.execute_batches`).  ``backend``,
    ``n_workers`` and ``transfer`` remain for callers written when there
    was a process pool; they accept only their in-process values
    (``None``, any count, ``"shm"``) and change nothing.
    """
    if backend is not None:
        raise ValueError(f"backend must be None, got {backend!r}")
    if transfer != "shm":
        raise ValueError(f"transfer must be 'shm', got {transfer!r}")
    if isinstance(scorer, str):
        scorer = get_scorer(scorer)
    started = time.perf_counter()
    scores, seconds, _ = execute_batches(hypotheses, scorer)
    return build_score_table(hypotheses, scores, seconds, scorer.name,
                             top_k, time.perf_counter() - started)
