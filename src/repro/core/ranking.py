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
from repro.engine_exec.executor import HypothesisExecutor
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

    ``backend=None`` (the default) scores in-process: hypotheses sharing
    (Y, Z) are grouped and each group goes through the scorer's
    ``score_batch`` in stacked numpy calls.  ``backend="process"`` scores
    one hypothesis per job across a pool of ``n_workers`` processes,
    matrices reaching them through shared memory; ``n_workers`` has no
    effect in-process.  The ranking is identical whichever way it is
    computed.  ``transfer`` remains for callers written when there were
    two transports; it accepts only ``"shm"``.
    """
    if transfer != "shm":
        raise ValueError(f"transfer must be 'shm', got {transfer!r}")
    if isinstance(scorer, str):
        scorer = get_scorer(scorer)
    started = time.perf_counter()
    scores, seconds, _ = HypothesisExecutor(
        n_workers=n_workers, backend=backend).score(hypotheses, scorer)
    return build_score_table(hypotheses, scores, seconds, scorer.name,
                             top_k, time.perf_counter() - started)
