"""Joint multivariate scoring with penalised regression (the paper's L2).

The score is the cross-validated r² of a ridge regression ``Y ~ X`` —
"the percentage of variance in Y explained by X on unseen data" — with a
grid search over the penalty inside contiguous k-fold CV (§3.5).  With a
non-empty Z the three-regression conditional procedure is used instead.

``L1Scorer`` is the Lasso variant the paper also experimented with; it is
slower (no shared factorisation across the penalty path) but yields
similar rankings, which the ablation benchmark confirms.

``L2Scorer.score_batch`` standardises Y (and Z) once, residualises Y
on Z once per batch, and runs the per-fold design SVDs of the
cross-validation as stacked 3-D operations over every same-shaped X in
the batch.  ``L1Scorer.score_batch`` cannot stack the X-side work
(coordinate descent shares no factorisation across designs), but it
amortises everything Y/Z-sided: validation, standardisation, the
residual projection of Y on Z, the fold split, and the per-fold total
sum of squares are computed once per batch instead of once per
hypothesis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.linmodel.batched import (
    as_stack,
    batched_cross_val_r2,
    batched_residualize,
    batched_standardize,
)
from repro.linmodel.lasso import Lasso
from repro.linmodel.crossval import TimeSeriesKFold
from repro.linmodel.preprocessing import StandardScaler
from repro.linmodel.ridge import DEFAULT_ALPHAS
from repro.scoring.base import (
    Scorer,
    group_by_shape,
    register_scorer,
    validate_batch,
)
from repro.scoring.conditional import RESIDUAL_ALPHA, residualize


class L2Scorer(Scorer):
    """Joint ridge-regression scoring (grid-searched, cross-validated)."""

    name = "L2"

    def __init__(self, alphas: Sequence[float] = DEFAULT_ALPHAS,
                 n_splits: int = 5, standardize: bool = True) -> None:
        self.alphas = tuple(float(a) for a in alphas)
        self.n_splits = n_splits
        self.standardize = standardize

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Vectorized scoring of many X against one shared (Y, Z)."""
        out = np.empty(len(xs))
        if not len(xs):
            return out
        validated, y_v, z_v = validate_batch(xs, y, z)
        if self.standardize:
            y_v = StandardScaler().fit_transform(y_v)
            if z_v is not None:
                z_v = StandardScaler().fit_transform(z_v)
        r_y = (batched_residualize(y_v[None], z_v, RESIDUAL_ALPHA)[0]
               if z_v is not None else None)
        for _, indices in group_by_shape(validated).items():
            stack = as_stack([validated[i] for i in indices])
            if self.standardize:
                stack = batched_standardize(stack)
            if z_v is not None:
                stack = batched_residualize(stack, z_v, RESIDUAL_ALPHA)
                results = batched_cross_val_r2(stack, r_y, alphas=self.alphas,
                                               n_splits=self.n_splits)
            else:
                results = batched_cross_val_r2(stack, y_v, alphas=self.alphas,
                                               n_splits=self.n_splits)
            for i, result in zip(indices, results):
                out[i] = float(np.clip(result.best_score, 0.0, 1.0))
        return out


class L1Scorer(Scorer):
    """Joint Lasso scoring (penalty ablation variant)."""

    name = "L1"

    def __init__(self, alphas: Sequence[float] = (0.001, 0.01, 0.1),
                 n_splits: int = 5) -> None:
        self.alphas = tuple(float(a) for a in alphas)
        self.n_splits = n_splits

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Batch scoring sharing all Y/Z-side work across the batch.

        The per-alpha Lasso fits stay one per hypothesis (coordinate
        descent has no cross-design factorisation to share), but the
        shared inputs — standardised/residualised Y, the fold split,
        each fold's validation block and training mean, the total sum
        of squares — are computed once.
        """
        out = np.empty(len(xs))
        if not len(xs):
            return out
        validated, y_v, z_v = validate_batch(xs, y, z)
        y_v = StandardScaler().fit_transform(y_v)
        if z_v is not None:
            z_v = StandardScaler().fit_transform(z_v)
            y_v = residualize(y_v, z_v)
        splits = list(TimeSeriesKFold(n_splits=self.n_splits).split(
            y_v.shape[0]))
        y_valids = [y_v[valid_idx] for _, valid_idx in splits]
        train_means = [y_v[train_idx].mean(axis=0) for train_idx, _ in splits]
        tss = 0.0
        for y_valid, train_mean in zip(y_valids, train_means):
            tss += float(np.sum((y_valid - train_mean) ** 2))
        for i, x in enumerate(validated):
            x_s = StandardScaler().fit_transform(x)
            if z_v is not None:
                x_s = residualize(x_s, z_v)
            if tss <= 1e-12:
                out[i] = 0.0
                continue
            rss = {alpha: 0.0 for alpha in self.alphas}
            for (train_idx, valid_idx), y_valid in zip(splits, y_valids):
                for alpha in self.alphas:
                    model = Lasso(alpha=alpha).fit(x_s[train_idx],
                                                   y_v[train_idx])
                    pred = model.predict(x_s[valid_idx])
                    if pred.ndim == 1:
                        pred = pred[:, None]
                    rss[alpha] += float(np.sum((y_valid - pred) ** 2))
            best = max(max(0.0, 1.0 - fold_rss / tss)
                       for fold_rss in rss.values())
            out[i] = float(np.clip(best, 0.0, 1.0))
        return out


register_scorer("L2", L2Scorer)
register_scorer("L1", L1Scorer)
