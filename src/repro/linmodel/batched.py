"""Batched linear-model kernels for vectorized hypothesis scoring.

In-process scoring (:mod:`repro.engine_exec.batch`) groups hypotheses
that share the same (Y, Z) matrices and scores each group in stacked
``numpy`` operations instead of one Python-level call per hypothesis:

- :func:`batched_standardize` — per-slice ``StandardScaler``.
- :func:`batched_residualize` — residualise ``H`` targets on one shared
  ``Z``, computing the SVD of ``Z`` once (conditional scoring).
- :func:`batched_cross_val_r2` — the grid-searched k-fold CV of §3.5,
  the only CV algorithm (``cross_val_r2`` is its batch of one), in Gram
  form: one pass over the rows collects per-validation-block sums and
  cross-products, a fold's training statistics are the totals minus
  its block, each fold is one stacked (H, F, F) ``eigh``, and each
  penalty is a diagonal rescale of that eigenbasis.
- :func:`batched_pca_truncate` — the PCA truncation of
  :class:`~repro.scoring.projection.PcaL2Scorer` as one stacked SVD.

Parity
------
*Composition independence is bitwise*: slice ``h`` of a batched result
is identical to the same matrix scored alone or in any other batch.
numpy's linalg gufuncs (``svd``, ``eigh``, ``matmul``) loop LAPACK/BLAS
over the leading axes with the same per-slice shapes and strides,
elementwise ops keep a per-slice evaluation order, and the one stacked
op that could take another BLAS path (``batched_residualize``'s
intercept GEMV) runs per slice.

*Parity with the per-fold SVD oracle* (``tests/scoring/reference.py``)
*is |Δscore| ≤ 1e-9*: the Gram form is algebraically equal but rounds
differently.  Two requirements keep the gap at rounding level.  Columns
are centred on their full-sample means before any Gram is formed — raw
block sums of a column with a large offset cancel catastrophically when
training means are downdated.  Penalties are strictly positive, which
bounds each solve's condition number by ``κ(C + αI) ≤ 1 + λ_max / α``
and makes rank-deficient designs (duplicated or constant columns, more
columns than training rows) as safe as full-rank ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.linmodel.crossval import TimeSeriesKFold
from repro.linmodel.ridge import DEFAULT_ALPHAS


@dataclass
class CvResult:
    """Outcome of a grid-search CV run."""

    best_alpha: float
    best_score: float                  # pooled out-of-fold r² at best_alpha
    scores_by_alpha: dict[float, float]
    n_samples: int
    n_features: int

    @classmethod
    def best_of(cls, signed: dict[float, float], n_samples: int,
                n_features: int) -> "CvResult":
        """Scores clipped below at 0; ties go to the heavier penalty."""
        scores = {alpha: max(0.0, score) for alpha, score in signed.items()}
        best_alpha = max(scores, key=lambda a: (scores[a], a))
        return cls(best_alpha, scores[best_alpha], scores, n_samples,
                   n_features)

    def as_dict(self) -> dict:
        return {
            "best_alpha": self.best_alpha,
            "best_score": self.best_score,
            "scores_by_alpha": dict(self.scores_by_alpha),
            "n_samples": self.n_samples,
            "n_features": self.n_features,
        }


def positive_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    """The ridge grid as floats; every penalty must be strictly positive."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas or min(alphas) <= 0.0:
        raise ValueError(f"ridge penalties must be > 0, got {alphas}")
    return alphas


def as_stack(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Stack same-shaped 2-D float matrices into a C-contiguous (H, T, F)."""
    stack = np.stack([np.asarray(m, dtype=np.float64) for m in matrices])
    if stack.ndim != 3:
        raise ValueError(f"expected a stack of 2-D matrices, got {stack.shape}")
    return np.ascontiguousarray(stack)


def _column_sums(stack: np.ndarray) -> np.ndarray:
    """(H, F) column sums as one GEMV per slice (an axis-1 ``sum`` over
    a few-column stack runs numpy's much slower strided loop)."""
    return np.ones(stack.shape[1]) @ stack


def batched_standardize(stack: np.ndarray) -> np.ndarray:
    """Per-slice ``StandardScaler().fit_transform`` of a (H, T, F) stack."""
    n_samples = stack.shape[1]
    centred = stack - (_column_sums(stack) / n_samples)[:, None, :]
    std = np.sqrt(_column_sums(centred * centred) / n_samples)
    centred /= np.where(std > 1e-12, std, 1.0)[:, None, :]
    return centred


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


def signed_cv_r2(x_stack: np.ndarray, y: np.ndarray,
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


def batched_cross_val_r2(x_stack: np.ndarray, y: np.ndarray,
                         alphas: Sequence[float] = DEFAULT_ALPHAS,
                         n_splits: int = 5,
                         splitter=None) -> list[CvResult]:
    """Grid-searched CV r² for H stacked designs against one shared ``Y``:
    :func:`signed_cv_r2` as one :meth:`CvResult.best_of` per design."""
    keys = positive_alphas(alphas)
    signed = signed_cv_r2(x_stack, y, keys, n_splits, splitter)
    _, n_samples, n_features = np.shape(x_stack)
    return [CvResult.best_of(dict(zip(keys, column.tolist())), n_samples,
                             n_features)
            for column in signed.T]
