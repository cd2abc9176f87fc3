"""Automatic scorer selection (§6.1's closing future-work item).

"We are working on techniques to automatically select the appropriate
method without user intervention."  The heuristic implemented here
follows the trade-offs Table 6 and §6.1 establish:

- all-univariate search spaces -> CorrMax (cheap, low false positives);
- wide families present -> project before the joint regression, with the
  projection dimension chosen from the sample count (keep p well under
  n so the CV'd r² retains power, Appendix A);
- moderate widths -> plain L2.

``AutoScorer`` also *mixes* per hypothesis: a single-metric family is
scored univariately even inside a joint-mode session, since the two
coincide in power there and the univariate path is far cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hypothesis import Hypothesis
from repro.scoring.base import Scorer, register_scorer
from repro.scoring.joint import L2Scorer
from repro.scoring.projection import ProjectedL2Scorer
from repro.scoring.univariate import CorrMaxScorer


@dataclass(frozen=True)
class SelectionDecision:
    """Why a scorer was chosen for a search space."""

    scorer_name: str
    reason: str
    max_features: int
    n_samples: int


def choose_scorer(hypotheses) -> SelectionDecision:
    """Pick one scorer for a whole search space."""
    if not hypotheses:
        return SelectionDecision("CorrMax", "empty search space", 0, 0)
    widths = [h.x.n_features for h in hypotheses]
    n_samples = hypotheses[0].y.n_samples
    max_width = max(widths)
    if max_width == 1:
        return SelectionDecision(
            "CorrMax",
            "all families univariate; marginal correlation is exact and "
            "cheapest",
            max_width, n_samples,
        )
    # Keep the effective predictor count under ~n/4 so the CV'd r² has
    # power (Appendix A: variance grows as p -> n).
    projection_budget = max(10, n_samples // 4)
    if max_width > projection_budget:
        d = min(50 if projection_budget >= 50 else projection_budget,
                projection_budget)
        return SelectionDecision(
            f"L2-P{d}",
            f"families up to {max_width} features vs {n_samples} samples; "
            f"project to {d} dimensions before the joint regression",
            max_width, n_samples,
        )
    return SelectionDecision(
        "L2",
        f"moderate family widths (max {max_width}) fit the sample "
        f"budget; full joint regression has the most power",
        max_width, n_samples,
    )


class AutoScorer(Scorer):
    """A scorer that routes each hypothesis to the right method."""

    name = "Auto"

    def __init__(self, n_splits: int = 5) -> None:
        self._univariate = CorrMaxScorer()
        self._joint = L2Scorer(n_splits=n_splits)
        self._projected_cache: dict[int, ProjectedL2Scorer] = {}

    @staticmethod
    def route(x: np.ndarray, z: np.ndarray | None = None) -> str:
        """The method ``score`` uses for X (and Z): ``"univariate"``,
        ``"joint"`` or ``"projected-<d>"``."""
        x = np.asarray(x)
        n_samples = x.shape[0]
        width = 1 if x.ndim == 1 else x.shape[1]
        if width == 1 and z is None:
            return "univariate"
        budget = max(10, n_samples // 4)
        if width > budget:
            return f"projected-{min(50, budget)}"
        return "joint"

    def score(self, x: np.ndarray, y: np.ndarray,
              z: np.ndarray | None = None) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        route = self.route(x, z)
        if route == "univariate":
            return self._univariate.score(x, y, z)
        if route == "joint":
            return self._joint.score(x, y, z)
        d = int(route.removeprefix("projected-"))
        scorer = self._projected_cache.get(d)
        if scorer is None:
            scorer = self._projected_cache[d] = ProjectedL2Scorer(d=d)
        return scorer.score(x, y, z)


def score_with_auto_selection(hypotheses: list[Hypothesis],
                              top_k: int = 20):
    """Rank a search space with per-hypothesis automatic selection.

    Returns ``(score_table, decision)`` where ``decision`` documents the
    space-level choice for the report header.
    """
    from repro.core.ranking import rank_families

    decision = choose_scorer(hypotheses)
    scorer = AutoScorer()
    table = rank_families(hypotheses, scorer=scorer, top_k=top_k)
    return table, decision


register_scorer("Auto", AutoScorer)
