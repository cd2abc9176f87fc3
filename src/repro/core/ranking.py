"""Hypothesis ranking (§3.5, Figure 4).

``rank_families`` is the core loop of Algorithm 1: score every hypothesis,
sort by decreasing score, return the top-k (default 20, the paper's
default limit) annotated with Chebyshev p-values and multiple-testing
corrections from Appendix A.  The Score Table types are defined in
:mod:`repro.scoring.table` and re-exported here.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.hypothesis import Hypothesis
from repro.engine_exec.executor import HypothesisExecutor
from repro.scoring.base import Scorer
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

    ``backend=None`` (the default) scores in-process: hypotheses sharing
    (Y, Z) are grouped and each group goes through the scorer's
    ``score_batch`` in stacked numpy calls.  ``backend="process"`` scores
    one hypothesis per job across a pool of ``n_workers`` processes;
    ``transfer`` picks how matrices reach them ("shm" for zero-copy
    shared memory, "pickle" for per-hypothesis serialisation).
    ``n_workers`` and ``transfer`` have no effect in-process.  The
    ranking is identical whichever way it is computed.
    """
    executor = HypothesisExecutor(n_workers=n_workers, backend=backend,
                                  transfer=transfer)
    return executor.run(hypotheses, scorer=scorer, top_k=top_k).score_table
