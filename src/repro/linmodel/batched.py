"""Batched linear-model kernels for vectorized hypothesis scoring.

In-process scoring (:mod:`repro.engine_exec.batch`) groups hypotheses
that share the same (Y, Z) matrices and scores each group in stacked
``numpy`` operations instead of one Python-level call per hypothesis.
The kernels here are the building blocks:

- :func:`batched_standardize` — column standardisation of a ``(H, T, F)``
  stack, mirroring :class:`~repro.linmodel.preprocessing.StandardScaler`.
- :func:`batched_residualize` — residualise ``H`` target matrices on one
  shared design ``Z``, computing the SVD of ``Z`` *once* instead of once
  per hypothesis (the shared residual projection of the conditional
  scoring procedure).
- :func:`batched_cross_val_r2` — the grid-searched, contiguous-fold CV
  of :func:`~repro.linmodel.model_selection.cross_val_r2` over a stack of
  ``H`` design matrices against one shared ``Y``; fold boundaries, the
  TSS baseline and ``Y``-side fold statistics are computed once per group
  and the per-hypothesis SVDs/GEMMs run as stacked 3-D gufunc calls.
- :func:`batched_pca_truncate` — the PCA truncation of
  :class:`~repro.scoring.projection.PcaL2Scorer` over a ``(H, T, F)``
  stack as one stacked SVD; per-X truncation is independent, so the
  stacked call is bitwise equal to the per-hypothesis loop.

Bitwise parity
--------------
All the kernels are written so that slice ``h`` of the batched result
is *bitwise identical* to the corresponding 2-D call (and therefore to
the same slice scored in any other batch).  numpy's
linalg gufuncs (``svd``, ``matmul``) loop the underlying LAPACK/BLAS
kernel over the leading axes, so each slice sees exactly the operand
shapes and strides of the 2-D call; elementwise ops and axis reductions
likewise preserve per-slice evaluation order.  The few places where a
stacked op could take a different BLAS path (the ``(F,) @ (F, ny)``
intercept GEMV) fall back to a tiny per-slice Python loop, and fold
rows are gathered with ``take`` so every slice stays contiguous.  The
parity tests assert exact float equality against the sequential
reference scorers in ``tests/scoring/reference.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.linmodel.crossval import TimeSeriesKFold
from repro.linmodel.model_selection import CvResult
from repro.linmodel.ridge import DEFAULT_ALPHAS


def as_stack(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Stack same-shaped 2-D float matrices into a C-contiguous (H, T, F)."""
    stack = np.stack([np.asarray(m, dtype=np.float64) for m in matrices])
    if stack.ndim != 3:
        raise ValueError(f"expected a stack of 2-D matrices, got {stack.shape}")
    return np.ascontiguousarray(stack)


def batched_standardize(stack: np.ndarray) -> np.ndarray:
    """Per-slice ``StandardScaler().fit_transform`` of a (H, T, F) stack."""
    mean = stack.mean(axis=1)
    std = stack.std(axis=1)
    scale = np.where(std > 1e-12, std, 1.0)
    return (stack - mean[:, None, :]) / scale[:, None, :]


def batched_residualize(targets: np.ndarray, z: np.ndarray,
                        alpha: float) -> np.ndarray:
    """Residualise H stacked targets on one shared design ``Z``.

    Per-slice bitwise equal to
    :func:`repro.scoring.conditional.residualize`, but the SVD of the
    (centred) ``Z`` is computed once for the whole stack — the shared
    residual-projection precompute that makes conditional batch scoring
    cheap.
    """
    targets = np.asarray(targets, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n_stack = targets.shape[0]
    z_mean = z.mean(axis=0)
    zc = z - z_mean
    u, s, vt = np.linalg.svd(zc, full_matrices=False)
    t_mean = targets.mean(axis=1)                       # (H, F)
    tc = targets - t_mean[:, None, :]
    u_t_t = u.T @ tc                                    # (H, r, F)
    denom = s**2 + alpha
    shrink = np.divide(s, denom, out=np.zeros_like(s), where=denom > 1e-15)
    coef = vt.T @ (shrink[:, None] * u_t_t)             # (H, nz, F)
    # (nz,) @ (nz, F) takes the GEMV path sequentially; keep it per slice.
    intercept = np.stack([t_mean[h] - z_mean @ coef[h]
                          for h in range(n_stack)])
    pred = z @ coef + intercept[:, None, :]
    return targets - pred


def batched_pca_truncate(stack: np.ndarray, d: int) -> np.ndarray:
    """Top-``d`` PCA scores of every slice of a (H, T, F) stack.

    Per-slice bitwise equal to the sequential truncation
    ``u[:, :d] * s[:d]`` of the SVD of the column-centred matrix: the
    stacked ``gesdd`` sees each contiguous slice with exactly the
    operand shapes of the 2-D call, and the trailing elementwise scale
    preserves per-element evaluation.  Output shape is
    ``(H, T, min(d, rank))`` where ``rank = min(T, F)``.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected a (H, T, F) stack, got {stack.shape}")
    centred = stack - stack.mean(axis=1)[:, None, :]
    u, s, _ = np.linalg.svd(centred, full_matrices=False)
    return u[:, :, :d] * s[:, None, :d]


def batched_cross_val_r2(x_stack: np.ndarray, y: np.ndarray,
                         alphas: Sequence[float] = DEFAULT_ALPHAS,
                         n_splits: int = 5,
                         splitter=None) -> list[CvResult]:
    """Grid-searched CV r² for H stacked designs against one shared ``Y``.

    Per-slice bitwise equal to
    ``[cross_val_r2(x, y, alphas, n_splits) for x in x_stack]``; the
    Y-side fold statistics (training means, TSS baseline) are computed
    once per group and the per-fold design SVDs run as one stacked
    ``gesdd`` call over all H hypotheses.
    """
    x_stack = np.asarray(x_stack, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    n_stack, n_samples, n_features = x_stack.shape
    if splitter is None:
        splitter = TimeSeriesKFold(n_splits=n_splits)
    rss = {float(a): np.zeros(n_stack) for a in alphas}
    tss = 0.0
    for train_idx, valid_idx in splitter.split(n_samples):
        # ``take`` rather than ``x_stack[:, idx, :]``: fancy indexing a
        # middle axis returns a stack whose slices are not contiguous,
        # and reductions over such slices round differently from the 2-D
        # call for single-column designs.
        x_train = np.take(x_stack, train_idx, axis=1)
        x_valid = np.take(x_stack, valid_idx, axis=1)
        y_valid = y[valid_idx]
        train_mean = y[train_idx].mean(axis=0)
        yc = y[train_idx] - train_mean
        tss += float(np.sum((y_valid - train_mean) ** 2))
        x_mean = x_train.mean(axis=1)                   # (H, F)
        xc = x_train - x_mean[:, None, :]
        u, s, vt = np.linalg.svd(xc, full_matrices=False)
        u_t_y = np.swapaxes(u, 1, 2) @ yc               # (H, r, ny)
        for alpha in rss:
            denom = s**2 + alpha
            shrink = np.divide(s, denom, out=np.zeros_like(s),
                               where=denom > 1e-15)
            coef = np.swapaxes(vt, 1, 2) @ (shrink[:, :, None] * u_t_y)
            intercept = np.stack([train_mean - x_mean[h] @ coef[h]
                                  for h in range(n_stack)])
            pred = x_valid @ coef + intercept[:, None, :]
            rss[alpha] += np.sum((y_valid - pred) ** 2, axis=(1, 2))
    results: list[CvResult] = []
    for h in range(n_stack):
        if tss <= 1e-12:
            scores = {alpha: 0.0 for alpha in rss}
        else:
            scores = {alpha: max(0.0, 1.0 - float(fold_rss[h]) / tss)
                      for alpha, fold_rss in rss.items()}
        best_alpha = max(scores, key=lambda a: (scores[a], a))
        results.append(CvResult(
            best_alpha=best_alpha,
            best_score=scores[best_alpha],
            scores_by_alpha=scores,
            n_samples=n_samples,
            n_features=n_features,
        ))
    return results
