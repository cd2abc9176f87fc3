"""Grid-search cross-validation producing out-of-fold r² scores.

This is the model-selection loop of §3.5: k-fold CV (contiguous,
time-respecting folds) with a grid search over L ridge-penalty values.
The returned r² is evaluated on *unseen* validation blocks — the paper
calls this the adjusted r² — so a family with no real predictive power
scores near 0 instead of overfitting towards 1 (Appendix A, Figure 13).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.linmodel.batched import (
    CvResult,
    batched_cross_val_r2,
    positive_alphas,
)
from repro.linmodel.crossval import TimeSeriesKFold
from repro.linmodel.lasso import Lasso
from repro.linmodel.ridge import DEFAULT_ALPHAS, Ridge


def cross_val_r2(x: np.ndarray, y: np.ndarray,
                 alphas: Sequence[float] = DEFAULT_ALPHAS,
                 n_splits: int = 5,
                 splitter=None) -> CvResult:
    """Pooled out-of-fold r² for each ridge penalty; returns the best.

    RSS and TSS are pooled across folds with the *training* mean of Y as
    the baseline predictor, so the final number is 1 - RSS/TSS over all
    held-out points, matching the paper's "estimate of the model
    performance on unseen data".  Scores are clipped below at 0.  The
    batch of one over :func:`~repro.linmodel.batched.batched_cross_val_r2`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return batched_cross_val_r2(x[None], y, alphas, n_splits, splitter)[0]


class GridSearchCV:
    """Estimator-style wrapper: CV-select a penalty, then refit on all data.

    ``penalty`` selects Ridge (default, the paper's preference) or Lasso.
    """

    def __init__(self, alphas: Sequence[float] = DEFAULT_ALPHAS,
                 n_splits: int = 5, penalty: str = "l2") -> None:
        if penalty not in ("l1", "l2"):
            raise ValueError(f"penalty must be 'l1' or 'l2', got {penalty!r}")
        self.alphas = (positive_alphas(alphas) if penalty == "l2"
                       else tuple(float(a) for a in alphas))
        self.n_splits = n_splits
        self.penalty = penalty
        self.cv_result_: CvResult | None = None
        self.best_estimator_: Ridge | Lasso | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GridSearchCV":
        if self.penalty == "l2":
            self.cv_result_ = cross_val_r2(x, y, self.alphas, self.n_splits)
            best_alpha = self.cv_result_.best_alpha
            self.best_estimator_ = Ridge(alpha=best_alpha).fit(x, y)
        else:
            self.cv_result_ = lasso_cross_val_r2(x, y, self.alphas,
                                                 self.n_splits)
            best_alpha = self.cv_result_.best_alpha
            self.best_estimator_ = Lasso(alpha=best_alpha).fit(x, y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.best_estimator_ is None:
            raise RuntimeError("call fit() before predict()")
        return self.best_estimator_.predict(x)

    @property
    def best_score_(self) -> float:
        if self.cv_result_ is None:
            raise RuntimeError("call fit() before reading best_score_")
        return self.cv_result_.best_score


def lasso_cross_val_r2(x: np.ndarray, y: np.ndarray,
                       alphas: Sequence[float], n_splits: int) -> CvResult:
    """Out-of-fold r² per Lasso penalty (no shared factorisation exists)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    splitter = TimeSeriesKFold(n_splits=n_splits)
    rss = {float(a): 0.0 for a in alphas}
    tss = 0.0
    for train_idx, valid_idx in splitter.split(x.shape[0]):
        y_valid = y[valid_idx]
        train_mean = y[train_idx].mean(axis=0)
        tss += float(np.sum((y_valid - train_mean) ** 2))
        for alpha in rss:
            model = Lasso(alpha=alpha).fit(x[train_idx], y[train_idx])
            pred = model.predict(x[valid_idx])
            if pred.ndim == 1:
                pred = pred[:, None]
            rss[alpha] += float(np.sum((y_valid - pred) ** 2))
    signed = {alpha: (1.0 - fold_rss / tss if tss > 1e-12 else 0.0)
              for alpha, fold_rss in rss.items()}
    return CvResult.best_of(signed, *x.shape)
