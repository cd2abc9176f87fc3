"""The per-fold cross-validation loop ``signed_cv_r2`` ran before its
folds were stacked — the bitwise oracle of the stacked kernel.

One Python iteration per validation block collects that block's
statistics, and one per fold solves it: a (H, F, F) ``eigh`` and the
RSS of every penalty.  :func:`repro.linmodel.batched.signed_cv_r2`
computes the same statistics for all folds at once and solves every
fold in one stacked ``eigh``; it must return exactly these bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.linmodel.batched import DEFAULT_ALPHAS, positive_alphas
from repro.linmodel.crossval import TimeSeriesKFold


def _column_sums(stack: np.ndarray) -> np.ndarray:
    """(H, F) column sums as one GEMV per slice (an axis-1 ``sum`` over
    a few-column stack runs numpy's much slower strided loop)."""
    return np.ones(stack.shape[1]) @ stack


def _validation_blocks(splitter, n_samples: int) -> list:
    """Each fold's validation rows, as a slice where contiguous.  A fold's
    training statistics are "all rows minus its block", so the blocks
    must partition the rows and train on exactly the complement."""
    blocks, held_out = [], np.zeros(n_samples, dtype=int)
    for train_idx, valid_idx in splitter.split(n_samples):
        held = np.zeros(n_samples, dtype=bool)
        held[valid_idx] = True
        held_out += held
        if not np.array_equal(np.sort(train_idx), np.flatnonzero(~held)):
            raise ValueError("cross-validation needs a partition splitter")
        contiguous = len(valid_idx) and np.all(np.diff(valid_idx) == 1)
        blocks.append(slice(valid_idx[0], valid_idx[-1] + 1) if contiguous
                      else np.asarray(valid_idx))
    if not np.all(held_out == 1):
        raise ValueError("cross-validation needs a partition splitter")
    return blocks


def fold_loop_signed_cv_r2(x_stack: np.ndarray, y: np.ndarray,
                 alphas: Sequence[float] = DEFAULT_ALPHAS,
                 n_splits: int = 5, splitter=None) -> np.ndarray:
    """Unclipped pooled out-of-fold r², shape ``(len(alphas), H)``.

    ``1 - RSS/TSS`` pooled over every held-out row, with each fold's
    *training* mean of Y as the baseline predictor; 0 where Y has no
    variance.  Negative where a penalty overfits — the NULL density of
    Figure 13 — which :func:`batched_cross_val_r2` clips.
    """
    alphas = np.asarray(positive_alphas(alphas))
    x_stack = np.ascontiguousarray(x_stack, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    n_samples = x_stack.shape[1]
    blocks = _validation_blocks(
        splitter or TimeSeriesKFold(n_splits=n_splits), n_samples)
    x_mean = (_column_sums(x_stack) / n_samples)[:, None, :]
    yc = y - y.mean(axis=0)
    # One pass over the rows: per block, on full-sample-centred columns,
    # the row count, column sums, X_bᵀX_b, X_bᵀy_b and Σy_b².  A
    # contiguous block is a slice view, so centring makes the only copy.
    stats = []
    for block in blocks:
        xb = x_stack[:, block] - x_mean
        yb = yc[block]
        xbt = np.swapaxes(xb, 1, 2)
        stats.append((yb.shape[0], _column_sums(xb), yb.sum(axis=0),
                      xbt @ xb, xbt @ yb, float(np.sum(yb * yb))))
    n_all, sx_all, sy_all, gram_all, cross_all = (
        sum(block_stats[i] for block_stats in stats) for i in range(5))
    rss = np.zeros((alphas.size, x_stack.shape[0]))
    tss = 0.0
    for n_b, sx_b, sy_b, gram_b, cross_b, yy_b in stats:
        n_t = n_all - n_b
        mx = (sx_all - sx_b) / n_t                       # (H, F) train means
        my = (sy_all - sy_b) / n_t                       # (ny,)
        gram = gram_all - gram_b - n_t * mx[:, :, None] * mx[:, None, :]
        cross = cross_all - cross_b - n_t * mx[:, :, None] * my
        # The held-out block re-centred on the training means.
        q_b = (gram_b - sx_b[:, :, None] * mx[:, None, :]
               - mx[:, :, None] * (sx_b - n_b * mx)[:, None, :])
        p_b = (cross_b - sx_b[:, :, None] * my
               - mx[:, :, None] * (sy_b - n_b * my))
        tss_b = yy_b - 2.0 * float(my @ sy_b) + n_b * float(my @ my)
        lam, vec = np.linalg.eigh(gram)
        shrink = 1.0 / (np.maximum(lam, 0.0) + alphas[:, None, None])
        coef = vec @ (shrink[..., None] * (np.swapaxes(vec, 1, 2) @ cross))
        rss += (tss_b - 2.0 * np.sum(coef * p_b, axis=(2, 3))
                + np.sum(coef * (q_b @ coef), axis=(2, 3)))
        tss += tss_b
    if tss <= 1e-12:
        return np.zeros_like(rss)
    return 1.0 - rss / tss
