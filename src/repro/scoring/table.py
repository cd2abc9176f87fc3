"""The Score Table (§3.5, Figure 4): ranked scores plus significance.

The last stage of Algorithm 1: hypotheses sorted by decreasing score and
annotated with Chebyshev p-values and the multiple-testing corrections
of Appendix A.  :func:`build_score_table` is the one place that turns
scores into a ranking; it takes score and timing arrays aligned with the
hypothesis list *by position*, so every execution path
(:mod:`repro.engine_exec`) hands back plain arrays and families sharing
a name cannot be confused with one another.  :func:`rank_scores` keeps
what a table was ranked from (a :class:`Ranking`), so a caller that
changes a few scores re-ranks with :meth:`Ranking.rescored` at the cost
of what changed, into the table a cold build gives.  The module sits
below the execution layer, which builds tables, and is re-exported from
:mod:`repro.core.ranking`, which callers import from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

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


@dataclass(frozen=True, init=False)
class RankedFamily:
    """One row of the Score Table (immutable: tables of different
    versions share the rows that did not change)."""

    rank: int
    family: str
    score: float
    n_features: int
    p_value: float
    p_bonferroni: float = 1.0
    significant_bh: bool = False
    seconds: float = 0.0

    def __init__(self, rank: int, family: str, score: float,
                 n_features: int, p_value: float, p_bonferroni: float = 1.0,
                 significant_bh: bool = False, seconds: float = 0.0) -> None:
        # Fields go straight into the instance dict: the frozen
        # dataclass' generated __init__ makes one object.__setattr__
        # call per field, ~6x the cost of an unfrozen row (~1.8 µs
        # against ~0.3 µs a row on a 2-vCPU x86 host; this is ~0.6 µs).
        fields = self.__dict__
        fields["rank"] = rank
        fields["family"] = family
        fields["score"] = score
        fields["n_features"] = n_features
        fields["p_value"] = p_value
        fields["p_bonferroni"] = p_bonferroni
        fields["significant_bh"] = significant_bh
        fields["seconds"] = seconds

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


def _name_ranks(names: Sequence[str]) -> np.ndarray:
    """Each name's place among ``names`` in ascending order."""
    by_name = sorted(range(len(names)), key=names.__getitem__)
    name_rank = np.empty(len(names), dtype=np.intp)
    name_rank[by_name] = np.arange(len(names))
    return name_rank


class Labels(NamedTuple):
    """What a Score Table row takes from its hypothesis, by position:
    ``names``, ``n_features`` and ``name_rank`` (each name's place
    among ``names``, the ranking's tie-break), plus the target and
    condition names."""

    target: str
    condition: str | None
    names: list[str]
    n_features: list[int]
    name_rank: np.ndarray


@dataclass(frozen=True, eq=False)
class Ranking:
    """A Score Table's ranking and what it was ranked from.

    ``labels``, ``scores``, ``seconds`` and ``p_values`` are by
    hypothesis position; ``order`` (the positions), ``significant`` (the
    BH flags) and ``results`` (the rows) are by rank.  Nothing here is
    written after construction: re-ranking builds a new ``Ranking`` that
    shares what did not change.
    """

    labels: Labels
    scores: np.ndarray
    seconds: np.ndarray
    p_values: np.ndarray
    order: np.ndarray
    significant: np.ndarray
    results: tuple[RankedFamily, ...]

    def rescored(self, positions: Sequence[int], scores: np.ndarray,
                 seconds: np.ndarray, p_values: np.ndarray) -> "Ranking":
        """The ranking after the rows at ``positions`` were rescored.

        ``scores``, ``seconds`` and ``p_values`` are the full new arrays
        by position, equal to this ranking's outside ``positions``.  The
        order is sorted anew (one ``lexsort``) and the corrections
        recomputed in one vectorised pass, but only the rows whose rank
        moved, whose values were rescored or whose BH flag flipped are
        built: every other row is reused as the same object, and the
        result is field for field the ranking :func:`rank_scores` builds
        cold.
        """
        return _ranked(self.labels, scores, seconds, p_values,
                       previous=self, rescored=positions)

    def table(self, scorer_name: str, top_k: int = DEFAULT_TOP_K,
              total_seconds: float = 0.0) -> ScoreTable:
        """The Score Table of this ranking."""
        results = list(self.results)
        return ScoreTable(
            results=results,
            scorer_name=scorer_name,
            target=self.labels.target,
            condition=self.labels.condition,
            n_hypotheses=len(results),
            total_seconds=total_seconds,
            all_scores={row.family: row.score for row in results},
            top_k=top_k,
        )


def _ranked(labels: Labels, scores: np.ndarray, seconds: np.ndarray,
            p_values: np.ndarray, previous: Ranking | None = None,
            rescored: Sequence[int] = ()) -> Ranking:
    """The hypotheses ranked by ``scores`` in the order of
    :func:`ranking_sort_key`, with no Python call per row: one stable
    lexsort over (NaN last, score descending, ``name_rank``).  Every row
    is new without ``previous``; with it, the rows at ``rescored``
    positions changed, and a row is new only where its position or
    values changed or its BH flag flipped."""
    nan = np.isnan(scores)
    order = np.lexsort((labels.name_rank, np.where(nan, 0.0, -scores), nan))
    ranked_p = p_values[order]
    significant = benjamini_hochberg(ranked_p)
    bonferroni_p = bonferroni(ranked_p)
    names, n_features = labels.names, labels.n_features
    if previous is None:
        results = tuple(
            RankedFamily(rank + 1, names[i], score, n_features[i], p,
                         p_bonf, bh, elapsed)
            for rank, (i, score, p, p_bonf, bh, elapsed) in enumerate(zip(
                order.tolist(), scores[order].tolist(), ranked_p.tolist(),
                bonferroni_p.tolist(), significant.tolist(),
                seconds[order].tolist())))
        return Ranking(labels, scores, seconds, p_values, order,
                       significant, results)
    marked = np.zeros(order.size, dtype=bool)
    marked[list(rescored)] = True
    changed = np.flatnonzero((previous.order != order) | marked[order]
                             | (previous.significant != significant))
    results = list(previous.results)
    for rank in changed.tolist():
        i = order.item(rank)
        results[rank] = RankedFamily(
            rank + 1, names[i], scores.item(i), n_features[i],
            ranked_p.item(rank), bonferroni_p.item(rank),
            significant.item(rank), seconds.item(i))
    return Ranking(labels, scores, seconds, p_values, order, significant,
                   tuple(results))


def rank_scores(hypotheses: Sequence[Hypothesis], scores: Sequence[float],
                seconds: Sequence[float],
                p_values: np.ndarray | None = None) -> Ranking:
    """Rank scored hypotheses (a non-empty list): the :class:`Ranking`
    behind :func:`build_score_table`.  ``scores[i]``, ``seconds[i]`` and
    ``p_values[i]`` belong to ``hypotheses[i]``; ``p_values`` defaults
    to :func:`chebyshev_p_values`."""
    scores = np.asarray(scores, dtype=np.float64)
    if p_values is None:
        p_values = chebyshev_p_values(hypotheses, scores)
    names = [h.name for h in hypotheses]
    first = hypotheses[0]
    labels = Labels(first.y.name,
                    first.z.name if first.z is not None else None, names,
                    [h.x.n_features for h in hypotheses], _name_ranks(names))
    return _ranked(labels, scores, np.asarray(seconds, dtype=np.float64),
                   np.asarray(p_values, dtype=np.float64))


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
    return rank_scores(hypotheses, scores, seconds, p_values).table(
        scorer_name, top_k, total_seconds)
