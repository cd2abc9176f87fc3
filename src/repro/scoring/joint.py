"""Joint multivariate scoring with penalised regression (the paper's L2).

The score is the cross-validated r² of a penalised regression ``Y ~ X``
— "the percentage of variance in Y explained by X on unseen data" — with
a grid search over the penalty inside contiguous k-fold CV (§3.5).  With
a non-empty Z the three-regression conditional procedure is used
instead: Y and every X are residualised on Z first.

``L2Scorer`` is ridge, the paper's choice; ``L1Scorer`` is the Lasso
variant the paper also experimented with.  Both are one scorer over one
kernel and differ only in the solve: ``prepare`` does all the (Y, Z)
work once per target — it standardises Y and Z, residualises Y on Z,
and collects Y's per-block cross-validation statistics — and
``score_prepared`` cross-validates each shape group of X against it in
one call of :func:`~repro.linmodel.batched.signed_cv_r2`, which builds
the fold statistics once and solves them with ridge's stacked ``eigh``
or L1's stacked coordinate descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.linmodel.batched import (
    DEFAULT_ALPHAS,
    RESIDUAL_ALPHA,
    CvTarget,
    ResidualBasis,
    as_stack,
    batched_standardize,
    best_cv_scores,
    cv_target,
    lasso_coefficients,
    positive_alphas,
    ridge_coefficients,
    signed_cv_r2,
    standardize,
)
from repro.scoring.base import (
    Scorer,
    ScoringError,
    group_by_shape,
    register_scorer,
    validate_target,
    validate_xs,
)


@dataclass(frozen=True)
class L2Target:
    """A (Y, Z) pair prepared by :meth:`L2Scorer.prepare`: Y standardised
    and residualised on Z, its cross-validation statistics, and the
    basis that residualises each X on the standardised Z."""

    rows: int
    cv: CvTarget
    z_basis: ResidualBasis | None


class L2Scorer(Scorer):
    """Joint ridge-regression scoring (grid-searched, cross-validated)."""

    name = "L2"
    _solve = staticmethod(ridge_coefficients)

    def __init__(self, alphas: Sequence[float] = DEFAULT_ALPHAS,
                 n_splits: int = 5, standardize: bool = True) -> None:
        self.alphas = positive_alphas(alphas)
        self.n_splits = n_splits
        self.standardize = standardize

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Vectorized scoring of many X against one shared (Y, Z)."""
        if not len(xs):
            return np.empty(0)
        return self.score_prepared(xs, self.prepare(y, z))

    def prepare(self, y: np.ndarray,
                z: np.ndarray | None = None) -> L2Target:
        """Everything Y and Z contribute to a score, done once."""
        y_v, z_v = validate_target(y, z)
        if y_v.shape[0] < self.n_splits:
            raise ScoringError(
                f"Y has {y_v.shape[0]} rows, fewer than the "
                f"{self.n_splits} cross-validation folds (n_splits)")
        if self.standardize:
            y_v = standardize(y_v)
            if z_v is not None:
                z_v = standardize(z_v)
        z_basis = None
        if z_v is not None:
            z_basis = ResidualBasis.of(z_v, RESIDUAL_ALPHA)
            y_v = z_basis.residualize(y_v[None])[0]
        return L2Target(y_v.shape[0], cv_target(y_v, self.n_splits),
                        z_basis)

    def score_prepared(self, xs: Sequence[np.ndarray],
                       target: L2Target) -> np.ndarray:
        """Each shape group of X standardised, residualised and
        cross-validated in one stacked call."""
        return self.score_validated(validate_xs(xs, target.rows), target)

    def score_validated(self, validated: Sequence[np.ndarray],
                        target: L2Target) -> np.ndarray:
        """:meth:`score_prepared` of X that already passed
        :func:`~repro.scoring.base.validate_xs` against ``target`` — the
        entry for wrappers that validate X themselves."""
        out = np.empty(len(validated))
        for indices in group_by_shape(validated).values():
            stack = as_stack([validated[i] for i in indices])
            if self.standardize:
                stack = batched_standardize(stack)
            if target.z_basis is not None:
                stack = target.z_basis.residualize(stack)
            signed = signed_cv_r2(stack, target.cv, self.alphas,
                                  solve=self._solve)
            out[indices] = np.clip(best_cv_scores(signed), 0.0, 1.0)
        return out


class L1Scorer(L2Scorer):
    """Joint Lasso scoring (penalty ablation variant): L2's scorer with
    the coordinate-descent solve, always standardised."""

    name = "L1"
    _solve = staticmethod(lasso_coefficients)

    def __init__(self, alphas: Sequence[float] = (0.001, 0.01, 0.1),
                 n_splits: int = 5) -> None:
        super().__init__(alphas, n_splits)


register_scorer("L2", L2Scorer)
register_scorer("L1", L1Scorer)
