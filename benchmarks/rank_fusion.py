"""Rank aggregation across multiple queries (§8's ongoing work).

"We are continuing to develop ExplainIt! ... also improving the ranking
using results [from] multiple queries."  A drill-down session produces
several Score Tables — different scorers, different conditionings,
different time ranges.  This module fuses them:

- **Reciprocal-rank fusion (RRF)** — robust, scale-free, the standard
  choice when score distributions differ across queries (they do:
  CorrMax and L2 are not on comparable scales).
- **Borda count** — positional voting, useful when all tables rank the
  same candidate set.
- **Score averaging** — only meaningful across runs of the *same*
  scorer (e.g. different seeds or time ranges).

Families missing from a table (filtered search space) simply contribute
nothing for that table.  The module lives beside ``bench_ablations.py``,
its one user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.ranking import ScoreTable, ranking_sort_key


@dataclass(frozen=True)
class FusedFamily:
    """One row of a fused ranking."""

    rank: int
    family: str
    fused_score: float
    appearances: int        # in how many input tables the family ranked


@dataclass
class FusedRanking:
    """Aggregated ranking over several Score Tables."""

    results: list[FusedFamily]
    method: str
    n_tables: int

    def top(self, k: int = 20) -> list[FusedFamily]:
        return self.results[:k]

    def rank_of(self, family: str) -> int | None:
        for row in self.results:
            if row.family == family:
                return row.rank
        return None

    def render(self, k: int = 20) -> str:
        lines = [
            f"Fusion: {self.method} over {self.n_tables} rankings",
            f"{'rank':>4}  {'fused':>8}  {'tables':>6}  family",
            "-" * 52,
        ]
        for row in self.top(k):
            lines.append(f"{row.rank:>4}  {row.fused_score:>8.4f}  "
                         f"{row.appearances:>6}  {row.family}")
        return "\n".join(lines)


def _build(scores: dict[str, float], counts: dict[str, int],
           method: str, n_tables: int) -> FusedRanking:
    ordered = sorted(scores.items(),
                     key=lambda kv: ranking_sort_key(kv[1], kv[0]))
    results = [
        FusedFamily(rank=i + 1, family=name, fused_score=score,
                    appearances=counts[name])
        for i, (name, score) in enumerate(ordered)
    ]
    return FusedRanking(results=results, method=method, n_tables=n_tables)


def reciprocal_rank_fusion(tables: Sequence[ScoreTable],
                           k: float = 60.0) -> FusedRanking:
    """RRF: each table contributes 1 / (k + rank) per family.

    ``k`` damps the dominance of rank-1 entries (60 is the literature's
    default); larger k flattens the fusion.
    """
    if not tables:
        raise ValueError("need at least one score table")
    scores: dict[str, float] = {}
    counts: dict[str, int] = {}
    for table in tables:
        for row in table.results:
            scores[row.family] = scores.get(row.family, 0.0) \
                + 1.0 / (k + row.rank)
            counts[row.family] = counts.get(row.family, 0) + 1
    return _build(scores, counts, f"RRF(k={k:g})", len(tables))


def borda_fusion(tables: Sequence[ScoreTable]) -> FusedRanking:
    """Borda count: rank r in a table of n candidates scores n - r."""
    if not tables:
        raise ValueError("need at least one score table")
    scores: dict[str, float] = {}
    counts: dict[str, int] = {}
    for table in tables:
        n = len(table.results)
        for row in table.results:
            scores[row.family] = scores.get(row.family, 0.0) \
                + float(n - row.rank)
            counts[row.family] = counts.get(row.family, 0) + 1
    return _build(scores, counts, "Borda", len(tables))


def mean_score_fusion(tables: Sequence[ScoreTable]) -> FusedRanking:
    """Average raw scores; only sensible across one scorer's runs."""
    if not tables:
        raise ValueError("need at least one score table")
    scorer_names = {t.scorer_name for t in tables}
    if len(scorer_names) > 1:
        raise ValueError(
            f"mean-score fusion mixes incomparable scorers: "
            f"{sorted(scorer_names)}; use reciprocal_rank_fusion"
        )
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for table in tables:
        for row in table.results:
            totals[row.family] = totals.get(row.family, 0.0) + row.score
            counts[row.family] = counts.get(row.family, 0) + 1
    scores = {name: total / counts[name]
              for name, total in totals.items()}
    return _build(scores, counts, "MeanScore", len(tables))
