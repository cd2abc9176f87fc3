"""The Score Table (§3.5, Figure 4): ranked scores plus significance.

The last stage of Algorithm 1: hypotheses sorted by decreasing score and
annotated with Chebyshev p-values and the multiple-testing corrections
of Appendix A.  :func:`build_score_table` is the one place that turns
scores into a ranking; it takes score and timing arrays aligned with the
hypothesis list *by position*, so every execution path
(:mod:`repro.engine_exec`) hands back plain arrays and families sharing
a name cannot be confused with one another.  The module sits below the
execution layer, which builds tables, and is re-exported from
:mod:`repro.core.ranking`, which callers import from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.scoring.significance import (
    benjamini_hochberg,
    bonferroni,
    p_value_chebyshev,
)
from repro.sql.table import Table

if TYPE_CHECKING:
    from repro.core.hypothesis import Hypothesis

DEFAULT_TOP_K = 20


def ranking_sort_key(score: float, family: str) -> tuple:
    """Total order of the Score Table: (score desc, family name asc).

    Exact score ties are broken by family name so the ranking — and
    everything graded from it (evalkit metrics, replay scorecards) — is
    deterministic and identical across execution backends.  NaN scores
    sort after every real score; their score component is replaced by a
    constant so NaN rows are also name-ordered rather than left in
    comparison-dependent input order.
    """
    if math.isnan(score):
        return (1, 0.0, family)
    return (0, -score, family)


@dataclass
class RankedFamily:
    """One row of the Score Table."""

    rank: int
    family: str
    score: float
    n_features: int
    p_value: float
    p_bonferroni: float = 1.0
    significant_bh: bool = False
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "family": self.family,
            "score": self.score,
            "n_features": self.n_features,
            "p_value": self.p_value,
            "p_bonferroni": self.p_bonferroni,
            "significant_bh": self.significant_bh,
            "seconds": self.seconds,
        }


@dataclass
class ScoreTable:
    """Ranked results plus run metadata; renders to text or a SQL table."""

    results: list[RankedFamily]
    scorer_name: str
    target: str
    condition: str | None = None
    n_hypotheses: int = 0
    total_seconds: float = 0.0
    all_scores: dict[str, float] = field(default_factory=dict)
    top_k: int = DEFAULT_TOP_K

    def top(self, k: int = DEFAULT_TOP_K) -> list[RankedFamily]:
        return self.results[:k]

    def rank_of(self, family: str) -> int | None:
        """1-based rank of a family, or None when not scored."""
        for row in self.results:
            if row.family == family:
                return row.rank
        return None

    def score_of(self, family: str) -> float | None:
        return self.all_scores.get(family)

    def to_table(self) -> Table:
        """The Score Table as a relational table (Figure 4's third stage)."""
        columns = ["rank", "family", "score", "n_features", "p_value",
                   "p_bonferroni", "significant_bh", "seconds"]
        rows = [tuple(row.as_dict()[c] for c in columns)
                for row in self.results]
        return Table(columns, rows)

    def render(self, k: int = DEFAULT_TOP_K) -> str:
        """Human-readable report (the paper's ranked result listing)."""
        lines = [
            f"Target: {self.target}"
            + (f"  |  conditioned on: {self.condition}" if self.condition
               else ""),
            f"Scorer: {self.scorer_name}  |  hypotheses: "
            f"{self.n_hypotheses}  |  {self.total_seconds:.2f}s",
            "",
            f"{'rank':>4}  {'score':>6}  {'p-value':>9}  {'F':>6}  family",
            "-" * 64,
        ]
        for row in self.top(k):
            lines.append(
                f"{row.rank:>4}  {row.score:>6.3f}  {row.p_value:>9.2e}  "
                f"{row.n_features:>6}  {row.family}"
            )
        return "\n".join(lines)


def chebyshev_p_values(hypotheses: Sequence[Hypothesis],
                       scores: Sequence[float]) -> np.ndarray:
    """The Chebyshev p-value of each score, by position (a function of
    the score and its hypothesis' shape alone, so it can be memoised
    with the score)."""
    return np.array([
        p_value_chebyshev(float(score), h.y.n_samples,
                          max(2, min(h.x.n_features, h.y.n_samples - 1)))
        for h, score in zip(hypotheses, scores)], dtype=np.float64)


def ranking_order(scores: np.ndarray, names: Sequence[str]) -> list[int]:
    """Positions sorted by :func:`ranking_sort_key`, with no Python call
    per row: one stable lexsort over (NaN last, score descending, the
    name's place among ``names``)."""
    by_name = sorted(range(len(names)), key=names.__getitem__)
    name_rank = np.empty(len(names), dtype=np.intp)
    name_rank[by_name] = np.arange(len(names))
    nan = np.isnan(scores)
    return np.lexsort((name_rank, np.where(nan, 0.0, -scores), nan)).tolist()


def build_score_table(hypotheses: Sequence[Hypothesis],
                      scores: Sequence[float], seconds: Sequence[float],
                      scorer_name: str, top_k: int = DEFAULT_TOP_K,
                      total_seconds: float = 0.0,
                      p_values: np.ndarray | None = None) -> ScoreTable:
    """Rank scored hypotheses into the Score Table.

    ``scores[i]``, ``seconds[i]`` and ``p_values[i]`` belong to
    ``hypotheses[i]``; ``p_values`` defaults to
    :func:`chebyshev_p_values`.  The full ranking is kept; ``top_k`` only
    affects presentation, so evaluation code can still ask for the rank
    of a cause below the cut.
    """
    if not hypotheses:
        return ScoreTable(results=[], scorer_name=scorer_name, target="",
                          total_seconds=total_seconds, top_k=top_k)
    scores = np.asarray(scores, dtype=np.float64)
    if p_values is None:
        p_values = chebyshev_p_values(hypotheses, scores)
    names = [h.name for h in hypotheses]
    order = ranking_order(scores, names)
    ranked_p = np.asarray(p_values, dtype=np.float64)[order]
    results = [
        RankedFamily(rank + 1, names[i], score, hypotheses[i].x.n_features,
                     p, p_bonf, bh, elapsed)
        for rank, (i, score, p, p_bonf, bh, elapsed) in enumerate(zip(
            order, scores[order].tolist(), ranked_p.tolist(),
            bonferroni(ranked_p).tolist(),
            benjamini_hochberg(ranked_p).tolist(),
            np.asarray(seconds, dtype=np.float64)[order].tolist()))
    ]
    first = hypotheses[0]
    return ScoreTable(
        results=results,
        scorer_name=scorer_name,
        target=first.y.name,
        condition=first.z.name if first.z is not None else None,
        n_hypotheses=len(hypotheses),
        total_seconds=total_seconds,
        all_scores={row.family: row.score for row in results},
        top_k=top_k,
    )
