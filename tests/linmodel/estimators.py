"""The sklearn-style estimators the scoring kernels replaced, kept as
test oracles.

Every score in ``src/`` comes from the stacked Gram-form kernels of
:mod:`repro.linmodel.batched`.  The plain 2-D estimators they replaced
live on here, one design at a time in row space, so the oracles in
``tests/scoring/reference.py`` share no solve with ``src/``:

- :func:`r2_score` — variance-weighted r² with an optional training-mean
  baseline;
- :class:`LinearRegression` — OLS through ``lstsq``;
- :class:`Ridge` / :class:`RidgeSvdFactor` — ridge through one thin SVD
  per design, reused across a penalty path;
- :class:`Lasso` — cyclical coordinate descent in row space, the oracle
  of :func:`~repro.linmodel.batched.lasso_coefficients`;
- :class:`StandardScaler` — column standardisation;
- the §3.5 conditional procedure: :func:`residualize` (a near-OLS ridge
  fit on Z), :func:`conditional_score` (the three regressions) and
  :func:`residual_cross_covariance` (Appendix B's ``Σxy − Σxz Σzz⁻¹
  Σzy``), with :func:`cross_val_r2`, the batch of one of
  :func:`~repro.linmodel.batched.batched_cross_val_r2`.

Benchmarks that fit a plain OLS or ridge model load this module by path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.linmodel.batched import (
    DEFAULT_ALPHAS,
    RESIDUAL_ALPHA,
    CvResult,
    batched_cross_val_r2,
)


def _as_2d(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D array, got shape {arr.shape}")
    return arr


def r2_score(y_true: np.ndarray, y_pred: np.ndarray,
             baseline_mean: np.ndarray | None = None) -> float:
    """Variance-weighted r² = 1 - RSS/TSS.

    ``baseline_mean`` lets callers supply the *training* mean for held-out
    evaluation (the residual baseline the paper compares to); by default
    the mean of ``y_true`` itself is used.

    Degenerate case: when TSS is ~0 (constant target), the score is 1.0 if
    the prediction matches the constant, else 0.0.
    """
    yt, yp = _as_2d(y_true), _as_2d(y_pred)
    if yt.shape != yp.shape:
        raise ValueError(f"shape mismatch: {yt.shape} vs {yp.shape}")
    if baseline_mean is None:
        mean = yt.mean(axis=0)
    else:
        mean = np.asarray(baseline_mean, dtype=np.float64).reshape(-1)
        if mean.shape[0] != yt.shape[1]:
            raise ValueError(
                f"baseline mean has {mean.shape[0]} entries for "
                f"{yt.shape[1]} outputs"
            )
    rss = float(np.sum((yt - yp) ** 2))
    tss = float(np.sum((yt - mean) ** 2))
    if tss <= 1e-12:
        return 1.0 if rss <= 1e-12 else 0.0
    return 1.0 - rss / tss


class NotFittedError(RuntimeError):
    """Raised when predict/score is called before fit."""


def _validate_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError(
            f"expected 2-D X and Y, got shapes {x.shape} and {y.shape}"
        )
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"X has {x.shape[0]} rows but Y has {y.shape[0]}"
        )
    if x.shape[0] == 0:
        raise ValueError("cannot fit on zero samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("X contains NaN or infinity; interpolate first")
    if not np.all(np.isfinite(y)):
        raise ValueError("Y contains NaN or infinity; interpolate first")
    return x, y


class LinearRegression:
    """OLS: minimises ||Y - X beta - intercept||² with no penalty."""

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None        # (n_features, n_outputs)
        self.intercept_: np.ndarray | None = None   # (n_outputs,)
        self._y_was_1d = False

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearRegression":
        self._y_was_1d = np.asarray(y).ndim == 1
        x, y = _validate_xy(x, y)
        if self.fit_intercept:
            x_mean = x.mean(axis=0)
            y_mean = y.mean(axis=0)
            xc = x - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(x.shape[1])
            y_mean = np.zeros(y.shape[1])
            xc, yc = x, y
        coef, *_ = np.linalg.lstsq(xc, yc, rcond=None)
        self.coef_ = coef
        self.intercept_ = y_mean - x_mean @ coef
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self.intercept_ is None:
            raise NotFittedError("call fit() before predict()")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        pred = x @ self.coef_ + self.intercept_
        return pred[:, 0] if self._y_was_1d else pred

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """r² of the prediction against ``y``."""
        return r2_score(y, self.predict(x))

    def residuals(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Y - Yhat, the "unexplained" component used by conditional scoring."""
        y_arr = np.asarray(y, dtype=np.float64)
        pred = self.predict(x)
        return y_arr - pred


class Ridge:
    """Ridge regression: minimises (1/T)||Y - X beta||² + alpha ||beta||²."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None
        self._y_was_1d = False

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Ridge":
        self._y_was_1d = np.asarray(y).ndim == 1
        x, y = _validate_xy(x, y)
        factor = RidgeSvdFactor(x, y, fit_intercept=self.fit_intercept)
        self.coef_, self.intercept_ = factor.solve(self.alpha)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self.intercept_ is None:
            raise NotFittedError("call fit() before predict()")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        pred = x @ self.coef_ + self.intercept_
        return pred[:, 0] if self._y_was_1d else pred

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """r² of the prediction against ``y``."""
        return r2_score(y, self.predict(x))


class RidgeSvdFactor:
    """Shared SVD factorisation reused across a penalty path.

    Build once per (X, Y) pair; :meth:`solve` then costs only
    O(rank · n_outputs) per λ.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray,
                 fit_intercept: bool = True) -> None:
        x, y = _validate_xy(x, y)
        self._fit_intercept = fit_intercept
        if fit_intercept:
            self._x_mean = x.mean(axis=0)
            self._y_mean = y.mean(axis=0)
            xc = x - self._x_mean
            yc = y - self._y_mean
        else:
            self._x_mean = np.zeros(x.shape[1])
            self._y_mean = np.zeros(y.shape[1])
            xc, yc = x, y
        # Thin SVD: xc = U diag(s) Vt with U (T, r), Vt (r, p).
        u, s, vt = np.linalg.svd(xc, full_matrices=False)
        self._u_t_y = u.T @ yc            # (r, n_outputs)
        self._s = s
        self._vt = vt

    def solve(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and intercept for one penalty value."""
        s = self._s
        # Guard tiny singular values to avoid 0/0 when alpha == 0.
        denom = s**2 + alpha
        shrink = np.divide(s, denom, out=np.zeros_like(s),
                           where=denom > 1e-15)
        coef = self._vt.T @ (shrink[:, None] * self._u_t_y)
        intercept = self._y_mean - self._x_mean @ coef
        return coef, intercept


class Lasso:
    """L1-penalised linear regression by coordinate descent."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True,
                 max_iter: int = 500, tol: float = 1e-6) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None
        self.n_iter_: int = 0
        self._y_was_1d = False

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Lasso":
        self._y_was_1d = np.asarray(y).ndim == 1
        x, y = _validate_xy(x, y)
        n_samples, n_features = x.shape
        if self.fit_intercept:
            x_mean = x.mean(axis=0)
            y_mean = y.mean(axis=0)
            xc = x - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(n_features)
            y_mean = np.zeros(y.shape[1])
            xc, yc = x, y

        col_sq = np.einsum("ij,ij->j", xc, xc) / n_samples
        coef = np.zeros((n_features, y.shape[1]))
        total_iters = 0
        for out in range(y.shape[1]):
            coef[:, out], iters = self._fit_single(
                xc, yc[:, out], col_sq, n_samples
            )
            total_iters = max(total_iters, iters)
        self.n_iter_ = total_iters
        self.coef_ = coef
        self.intercept_ = y_mean - x_mean @ coef
        return self

    def _fit_single(self, xc: np.ndarray, yc: np.ndarray,
                    col_sq: np.ndarray, n_samples: int
                    ) -> tuple[np.ndarray, int]:
        n_features = xc.shape[1]
        beta = np.zeros(n_features)
        residual = yc.copy()
        active = col_sq > 1e-15
        for iteration in range(1, self.max_iter + 1):
            max_delta = 0.0
            for j in range(n_features):
                if not active[j]:
                    continue
                old = beta[j]
                # Partial residual correlation for coordinate j.
                rho = (xc[:, j] @ residual) / n_samples + col_sq[j] * old
                new = _soft_threshold(rho, self.alpha) / col_sq[j]
                if new != old:
                    residual -= xc[:, j] * (new - old)
                    beta[j] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < self.tol:
                return beta, iteration
        return beta, self.max_iter

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self.intercept_ is None:
            raise NotFittedError("call fit() before predict()")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        pred = x @ self.coef_ + self.intercept_
        return pred[:, 0] if self._y_was_1d else pred

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """r² of the prediction against ``y``."""
        return r2_score(y, self.predict(x))

    def sparsity(self) -> float:
        """Fraction of exactly-zero coefficients (the L1 selling point)."""
        if self.coef_ is None:
            raise NotFittedError("call fit() before sparsity()")
        return float(np.mean(self.coef_ == 0.0))


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


class StandardScaler:
    """Column-wise zero-mean / unit-variance scaling.

    Constant columns get a scale of 1 (they standardise to zero rather
    than dividing by zero), which is the safe behaviour for the always-
    flat metrics common in monitoring data.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        self.scale_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("call fit() before transform()")
        x = np.asarray(x, dtype=np.float64)
        was_1d = x.ndim == 1
        if was_1d:
            x = x[:, None]
        out = (x - self.mean_) / self.scale_
        return out[:, 0] if was_1d else out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("call fit() before inverse_transform()")
        x = np.asarray(x, dtype=np.float64)
        was_1d = x.ndim == 1
        if was_1d:
            x = x[:, None]
        out = x * self.scale_ + self.mean_
        return out[:, 0] if was_1d else out


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


def residualize(target: np.ndarray, z: np.ndarray,
                alpha: float = RESIDUAL_ALPHA) -> np.ndarray:
    """Residual of ``target`` after a (near-OLS) regression on ``Z``."""
    target = np.asarray(target, dtype=np.float64)
    was_1d = target.ndim == 1
    if was_1d:
        target = target[:, None]
    model = Ridge(alpha=alpha).fit(z, target)
    residual = target - model.predict(z)
    return residual[:, 0] if was_1d else residual


def conditional_score(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                      alphas: Sequence[float] = DEFAULT_ALPHAS,
                      n_splits: int = 5) -> float:
    """Cross-validated r² of ``R_{Y;Z} ~ R_{X;Z}`` in [0, 1]."""
    r_y = residualize(y, z)
    r_x = residualize(x, z)
    result = cross_val_r2(r_x, r_y, alphas=alphas, n_splits=n_splits)
    return float(np.clip(result.best_score, 0.0, 1.0))


def residual_cross_covariance(x: np.ndarray, y: np.ndarray,
                              z: np.ndarray) -> np.ndarray:
    """Sample estimate of ``Σxy − Σxz Σzz⁻¹ Σzy`` (Appendix B).

    Computed directly from the OLS residuals' cross-products; a zero
    matrix certifies the conditional independence ``X ⊥ Y | Z`` under
    joint normality.
    """
    r_x = residualize(x, z, alpha=0.0)
    r_y = residualize(y, z, alpha=0.0)
    return r_x.T @ r_y / x.shape[0]
