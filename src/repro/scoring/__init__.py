"""Hypothesis scoring: the five scorers of §6 plus significance control.

A scorer maps a hypothesis triple of dense matrices ``(X, Y, Z)`` — shapes
``(T, nx)``, ``(T, ny)``, ``(T, nz)`` — to a causal-relevance score in
``[0, 1]`` measuring the dependence ``Y ~ X | Z``:

- :class:`~repro.scoring.univariate.CorrMeanScorer` /
  :class:`~repro.scoring.univariate.CorrMaxScorer` — mean/max absolute
  pairwise Pearson correlation (marginal dependence only).
- :class:`~repro.scoring.joint.L2Scorer` — cross-validated ridge r²
  (joint dependence), the paper's ``L2``; ``L1Scorer`` is its Lasso
  variant.
- :class:`~repro.scoring.projection.ProjectedL2Scorer` — ``L2-P50`` /
  ``L2-P500``: random projection to at most d dimensions first.
- Conditional scoring (Z non-empty) runs the three-regression residual
  procedure of §3.5, proved correct for jointly-normal data in Appendix B:
  every scorer residualises Y and X on Z through one
  :class:`~repro.linmodel.batched.ResidualBasis` per target.

:mod:`repro.scoring.significance` implements Appendix A's false-positive
control: Chebyshev p-values from the variance of the adjusted r² under
the NULL, and the Bonferroni / Benjamini-Hochberg multiple-testing
corrections.
"""

from repro.scoring.base import (
    Scorer,
    get_scorer,
    list_scorers,
    register_scorer,
)
from repro.scoring.univariate import CorrMaxScorer, CorrMeanScorer, correlation_matrix
from repro.scoring.joint import L2Scorer, L1Scorer
from repro.scoring.projection import (
    PcaL2Scorer,
    ProjectedL2Scorer,
    random_projection,
)
from repro.scoring.lagged import LaggedScorer, best_lag, lag_matrix
from repro.scoring.significance import (
    benjamini_hochberg,
    bonferroni,
    p_value_chebyshev,
)

__all__ = [
    "Scorer",
    "get_scorer",
    "list_scorers",
    "register_scorer",
    "CorrMeanScorer",
    "CorrMaxScorer",
    "correlation_matrix",
    "L2Scorer",
    "L1Scorer",
    "PcaL2Scorer",
    "ProjectedL2Scorer",
    "random_projection",
    "LaggedScorer",
    "best_lag",
    "lag_matrix",
    "p_value_chebyshev",
    "bonferroni",
    "benjamini_hochberg",
]
