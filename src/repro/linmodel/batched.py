"""Batched linear-model kernels for vectorized hypothesis scoring.

Scoring (:mod:`repro.scoring`) groups hypotheses that share the same
(Y, Z) matrices and scores each group in stacked ``numpy`` operations
instead of one Python-level call per hypothesis:

- :func:`standardize` / :func:`batched_standardize` — zero mean, unit
  variance per column, of one matrix / of every slice of a stack.
- :class:`ResidualBasis` — residualise stacks of targets on one shared
  ``Z``, computing the SVD of ``Z`` once per target (conditional
  scoring).
- :func:`signed_cv_r2` — the grid-searched k-fold CV of §3.5, the only
  CV algorithm (:func:`batched_cross_val_r2` wraps it in
  :class:`CvResult`), in Gram form and in two parts.
  :func:`fold_statistics` makes one pass over the rows, collecting
  per-validation-block sums and cross-products; a fold's training
  statistics are the totals minus its block.  A solve then turns them
  into coefficients for every (penalty, fold, design):
  :func:`ridge_coefficients` is one stacked (K, H, F, F) ``eigh`` with
  each penalty a diagonal rescale of that eigenbasis, and
  :func:`lasso_coefficients` is covariance-update coordinate descent
  (Friedman, Hastie & Tibshirani, J. Stat. Softw. 2010) over every
  (penalty, fold, design, Y column) slice at once.  The held-out RSS of
  either is read off the same block statistics.  Its Y side — the
  partition and Y's per-block statistics — is a :class:`CvTarget`,
  prepared once per target by :func:`cv_target`.
- :func:`batched_pca_truncate` — the PCA truncation of
  :class:`~repro.scoring.projection.PcaL2Scorer` as one stacked SVD.

Parity
------
*Composition independence is bitwise*: slice ``h`` of a batched result
is identical to the same matrix scored alone or in any other batch.
numpy's linalg gufuncs (``svd``, ``eigh``, ``matmul``) loop LAPACK/BLAS
over the leading axes with the same per-slice shapes and strides,
elementwise ops keep a per-slice evaluation order, and the one stacked
op that could take another BLAS path (``ResidualBasis.residualize``'s
intercept GEMV) runs per slice.  Stacking the folds is bitwise too:
sums over the fold axis add in fold order, exactly as a loop over the
folds does (``tests/linmodel/fold_loop.py`` keeps that loop as the
oracle).

*Parity with the row-space oracles* (``tests/scoring/reference.py``:
a per-fold SVD for ridge, a per-fold ``Lasso`` for L1) *is |Δscore| ≤
1e-9*: the Gram form is algebraically equal but rounds differently.
Two requirements keep the gap at rounding level.  Columns are centred
on their full-sample means before any Gram is formed — raw block sums
of a column with a large offset cancel catastrophically when training
means are downdated.  Penalties are finite and strictly positive, which
bounds each ridge solve's condition number by ``κ(C + αI) ≤ 1 +
λ_max / α``, makes rank-deficient designs (duplicated or constant
columns, more columns than training rows) as safe as full-rank ones,
and keeps a coordinate that rounding leaves barely non-constant at
zero under the L1 threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.linmodel.crossval import TimeSeriesKFold

#: Default ridge penalty grid; the paper uses L = 3-5 grid points.
DEFAULT_ALPHAS = (0.1, 10.0, 1000.0)

#: Tiny ridge penalty of the residualising regressions on Z: near-OLS,
#: but numerically safe when Z has collinear columns.
RESIDUAL_ALPHA = 1e-6

#: Coordinate descent stops a slice after this many sweeps, or once a
#: sweep moves no coefficient by ``LASSO_TOL`` or more.
LASSO_MAX_ITER = 500
LASSO_TOL = 1e-6


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
    """A penalty grid as floats: non-empty, every penalty finite and
    strictly positive (a NaN compares false both ways, so it is tested
    for explicitly)."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas or not all(math.isfinite(a) and a > 0.0 for a in alphas):
        raise ValueError(f"penalties must be finite and > 0, got {alphas}")
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


def standardize(matrix: np.ndarray) -> np.ndarray:
    """Columns of a (T, F) matrix at zero mean and unit variance; a
    constant column (standard deviation ≤ 1e-12) is only centred."""
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    return (matrix - mean) / np.where(std > 1e-12, std, 1.0)


def batched_standardize(stack: np.ndarray) -> np.ndarray:
    """:func:`standardize` of every slice of a (H, T, F) stack, with the
    column sums as GEMVs (within rounding of it, not bitwise)."""
    n_samples = stack.shape[1]
    centred = stack - (_column_sums(stack) / n_samples)[:, None, :]
    std = np.sqrt(_column_sums(centred * centred) / n_samples)
    centred /= np.where(std > 1e-12, std, 1.0)[:, None, :]
    return centred


@dataclass(frozen=True)
class ResidualBasis:
    """Residualises stacked targets on one shared design ``Z``: Z's
    column means and the shrunk SVD of the centred Z, computed once per
    Z — the shared residual-projection precompute that makes conditional
    batch scoring cheap.

    Per slice, :meth:`residualize` is bitwise the residual of a ridge
    fit ``target ~ Z`` through the thin SVD of the centred ``Z``
    (``residualize`` in ``tests/linmodel/estimators.py``).
    """

    z: np.ndarray
    z_mean: np.ndarray
    u: np.ndarray
    shrink: np.ndarray
    vt: np.ndarray

    @classmethod
    def of(cls, z: np.ndarray, alpha: float) -> "ResidualBasis":
        z = np.asarray(z, dtype=np.float64)
        z_mean = z.mean(axis=0)
        u, s, vt = np.linalg.svd(z - z_mean, full_matrices=False)
        denom = s**2 + alpha
        shrink = np.divide(s, denom, out=np.zeros_like(s),
                           where=denom > 1e-15)
        return cls(z, z_mean, u, shrink, vt)

    def residualize(self, targets: np.ndarray) -> np.ndarray:
        """Residualise H stacked targets on this basis's ``Z``."""
        targets = np.asarray(targets, dtype=np.float64)
        t_mean = targets.mean(axis=1)                       # (H, F)
        tc = targets - t_mean[:, None, :]
        u_t_t = self.u.T @ tc                               # (H, r, F)
        coef = self.vt.T @ (self.shrink[:, None] * u_t_t)   # (H, nz, F)
        # (nz,) @ (nz, F) takes the GEMV path sequentially; keep it per
        # slice.
        intercept = np.stack([t_mean[h] - self.z_mean @ coef[h]
                              for h in range(targets.shape[0])])
        pred = self.z @ coef + intercept[:, None, :]
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


@dataclass(frozen=True)
class _Partition:
    """A partition splitter's validation blocks in fold order, laid out
    for stacking: ``order`` lists the rows block after block (``None``
    when that is ``0..T-1``), and ``runs`` cuts it into runs of
    consecutive blocks of one size and one kind as ``(first position in
    order, blocks, rows per block, contiguous)``.  A block of
    consecutive rows is centred as a row slice of X (C-contiguous rows),
    any other as a gather (rows strided by the stack), and each run
    reshapes to ``(blocks, rows, ...)`` with its blocks' layout."""

    order: np.ndarray | None
    runs: tuple[tuple[int, int, int, bool], ...]
    n_samples: int


def _partition(splitter, n_samples: int) -> _Partition:
    """A fold's training statistics are "all rows minus its block", so
    the blocks must partition the rows and train on exactly the
    complement."""
    blocks, held_out = [], np.zeros(n_samples, dtype=int)
    for train_idx, valid_idx in splitter.split(n_samples):
        held = np.zeros(n_samples, dtype=bool)
        held[valid_idx] = True
        held_out += held
        if not np.array_equal(np.sort(train_idx), np.flatnonzero(~held)):
            raise ValueError("cross-validation needs a partition splitter")
        blocks.append(np.asarray(valid_idx))
    if not np.all(held_out == 1):
        raise ValueError("cross-validation needs a partition splitter")
    runs: list[list] = []
    start = 0
    for block in blocks:
        contiguous = bool(len(block)) and bool(np.all(np.diff(block) == 1))
        if runs and runs[-1][2:] == [len(block), contiguous]:
            runs[-1][1] += 1
        else:
            runs.append([start, 1, len(block), contiguous])
        start += len(block)
    order = np.concatenate(blocks)
    in_order = np.array_equal(order, np.arange(n_samples))
    return _Partition(None if in_order else order,
                      tuple(tuple(run) for run in runs), n_samples)


@lru_cache(maxsize=64)
def _contiguous_partition(n_splits: int, n_samples: int) -> _Partition:
    return _partition(TimeSeriesKFold(n_splits=n_splits), n_samples)


def _fold_total(per_fold: np.ndarray) -> np.ndarray:
    """``0 + s_0 + s_1 + ...`` over the leading fold axis, in fold order.

    ``accumulate`` adds strictly in sequence (an axis-0 ``sum`` may add
    pairwise), and the trailing ``+ 0.0`` turns the one value a sum that
    starts from 0 can never produce, -0.0, into +0.0.
    """
    return np.add.accumulate(per_fold, axis=0)[-1] + 0.0


@dataclass(frozen=True)
class CvTarget:
    """The Y side of :func:`signed_cv_r2`, prepared once per target.

    Everything a fold needs from Y alone: the partition, Y centred on
    its full-sample mean (as one ``(blocks, rows, ny)`` view per run of
    the partition), and per fold the held-out row count, the
    training rows and mean, the held-out sum re-centred on that mean,
    and the held-out total sum of squares.
    """

    partition: _Partition
    y_runs: tuple[np.ndarray, ...]
    n_held: np.ndarray               # (K,)
    n_train: np.ndarray              # (K,)
    train_mean: np.ndarray           # (K, ny)
    held_sum: np.ndarray             # (K, ny) Σy_b − n_b·mean
    held_tss: np.ndarray             # (K,)
    tss: float


def cv_target(y: np.ndarray, n_splits: int = 5,
              splitter=None) -> CvTarget:
    """Prepare ``y`` for :func:`signed_cv_r2`; the contiguous default
    partition is built once per ``(n_splits, T)``."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    n_samples = y.shape[0]
    partition = (_contiguous_partition(n_splits, n_samples)
                 if splitter is None else _partition(splitter, n_samples))
    yc = y - y.mean(axis=0)
    if partition.order is not None:
        yc = yc[partition.order]
    blocks = [yc[start + k * size:start + (k + 1) * size]
              for start, count, size, _ in partition.runs
              for k in range(count)]
    held_sums = [yb.sum(axis=0) for yb in blocks]
    n_all, sy_all = sum(len(yb) for yb in blocks), sum(held_sums)
    n_held, n_train, means, rests, tss_b = [], [], [], [], []
    tss = 0.0
    for yb, sy_b in zip(blocks, held_sums):
        n_b = yb.shape[0]
        n_t = n_all - n_b
        my = (sy_all - sy_b) / n_t
        tss_fold = (float(np.sum(yb * yb)) - 2.0 * float(my @ sy_b)
                    + n_b * float(my @ my))
        n_held.append(n_b)
        n_train.append(n_t)
        means.append(my)
        rests.append(sy_b - n_b * my)
        tss_b.append(tss_fold)
        tss += tss_fold
    y_runs = tuple(yc[start:start + count * size].reshape(count, size, -1)
                   for start, count, size, _ in partition.runs)
    return CvTarget(partition, y_runs, np.asarray(n_held, dtype=np.float64),
                    np.asarray(n_train, dtype=np.float64), np.stack(means),
                    np.stack(rests), np.asarray(tss_b), tss)


@dataclass(frozen=True)
class FoldStatistics:
    """What a penalty's solve and its held-out RSS need from X and Y,
    per fold and design: the training Gram and cross-products, centred
    on the fold's training means, and the held-out block's own, re-centred
    on those means."""

    gram: np.ndarray                 # (K, H, F, F)
    cross: np.ndarray                # (K, H, F, ny)
    q_b: np.ndarray                  # (K, H, F, F)
    p_b: np.ndarray                  # (K, H, F, ny)
    n_train: np.ndarray              # (K,)


def fold_statistics(x_stack: np.ndarray, target: CvTarget) -> FoldStatistics:
    """The :class:`FoldStatistics` of a (H, T, F) stack against a
    prepared Y.

    Each block's statistics stack into ``(K, H, ...)`` arrays with the
    same operands, shapes and strides as a loop over the folds would
    use, so every fold is bitwise that loop's.
    """
    x_stack = np.ascontiguousarray(x_stack, dtype=np.float64)
    n_stack, n_samples, n_features = x_stack.shape
    if n_samples != target.partition.n_samples:
        raise ValueError(f"X has {n_samples} rows but Y has "
                         f"{target.partition.n_samples}")
    x_mean = (_column_sums(x_stack) / n_samples)[:, None, :]
    order = target.partition.order
    if order is None:
        xc = x_stack - x_mean
    # One pass over the rows: per block, on full-sample-centred columns,
    # the column sums, X_bᵀX_b and X_bᵀy_b, stacked (K, H, ...).  Each
    # run of blocks is a (H, blocks, rows, F) view.
    sx_b, gram_b, cross_b = [], [], []
    for (start, count, size, contiguous), yb in zip(target.partition.runs,
                                                    target.y_runs):
        stop = start + count * size
        if order is None:
            run = xc[:, start:stop]
        else:
            run = x_stack[:, order[start:stop]] - x_mean
            if contiguous:
                run = np.ascontiguousarray(run)
        xb = run.reshape(n_stack, count, size, n_features).swapaxes(0, 1)
        xbt = np.swapaxes(xb, 2, 3)
        sx_b.append(np.ones(size) @ xb)
        gram_b.append(xbt @ xb)
        cross_b.append(xbt @ yb[:, None])
    sx_b, gram_b, cross_b = (parts[0] if len(parts) == 1
                             else np.concatenate(parts)
                             for parts in (sx_b, gram_b, cross_b))
    n_b = target.n_held[:, None, None]
    n_t = target.n_train[:, None, None]
    sx_all = _fold_total(sx_b)
    mx = (sx_all - sx_b) / n_t                      # (K, H, F) train means
    my = target.train_mean[:, None, None, :]        # (K, 1, 1, ny)
    gram = (_fold_total(gram_b) - gram_b
            - n_t[..., None] * mx[..., :, None] * mx[..., None, :])
    cross = _fold_total(cross_b) - cross_b - n_t[..., None] * mx[..., None] * my
    # The held-out block re-centred on the training means.
    q_b = (gram_b - sx_b[..., :, None] * mx[..., None, :]
           - mx[..., :, None] * (sx_b - n_b * mx)[..., None, :])
    p_b = (cross_b - sx_b[..., None] * my
           - mx[..., None] * target.held_sum[:, None, None, :])
    return FoldStatistics(gram, cross, q_b, p_b, target.n_train)


def ridge_coefficients(stats: FoldStatistics,
                       alphas: np.ndarray) -> np.ndarray:
    """Ridge coefficients ``(C + αI)⁻¹c`` of every fold, penalty and
    design, shape ``(K, A, H, F, ny)``: one ``eigh`` over ``(K, H, F,
    F)``, each penalty a diagonal rescale of its eigenbasis."""
    lam, vec = np.linalg.eigh(stats.gram)
    shrink = 1.0 / (np.maximum(lam, 0.0)[:, None]
                    + alphas[:, None, None])            # (K, A, H, F)
    return vec[:, None] @ (shrink[..., None]
                           * (np.swapaxes(vec, 2, 3) @ stats.cross)[:, None])


def lasso_coefficients(stats: FoldStatistics,
                       alphas: np.ndarray) -> np.ndarray:
    """Lasso coefficients of every fold, penalty, design and Y column,
    shape ``(K, A, H, F, ny)``.

    Minimises ``‖y − Xβ‖² / (2n) + α‖β‖₁`` over each fold's ``n``
    centred training rows by cyclical coordinate descent in covariance
    form: ``g = Xᵀ(y − Xβ)`` is kept per slice and a coordinate's move
    ``δ`` updates it by ``−G[:, j]·δ``.  Every slice starts from zero,
    sweeps the coordinates in column order, and stops on its own after
    the first sweep that moves no coefficient by :data:`LASSO_TOL` or
    more, or after :data:`LASSO_MAX_ITER` sweeps.  A column constant on
    the training rows (``G[j, j] / n ≤ 1e-15``) keeps a zero coefficient.
    """
    gram, cross = stats.gram, stats.cross
    n_folds, n_stack, n_features, n_cols = cross.shape
    grams = gram.reshape(-1, n_features, n_features)       # (K·H, F, F)
    n_t = np.repeat(stats.n_train, n_stack)                # (K·H,)
    col_sq = np.diagonal(grams, axis1=1, axis2=2) / n_t[:, None]
    active = col_sq > 1e-15
    # A coordinate that never moves must not move the others either.
    grams = grams * active[:, :, None] * active[:, None, :]
    g0 = cross.reshape(-1, n_features, n_cols) * active[:, :, None]
    scale = np.where(active, col_sq, 1.0)
    # Slices in (fold, penalty, design, Y column) order; coordinate-major
    # arrays (F, S) make each coordinate's row contiguous.
    shape = (n_folds, alphas.size, n_stack, n_cols)
    design = np.broadcast_to(
        np.arange(n_folds * n_stack).reshape(n_folds, 1, n_stack, 1),
        shape).ravel()
    y_col = np.broadcast_to(np.arange(n_cols), shape).ravel()
    alpha = np.broadcast_to(alphas[:, None, None], shape).ravel()
    live = np.arange(design.size)
    n = n_t[design]
    g = np.ascontiguousarray(g0[design, :, y_col].T)
    col_sq, scale = col_sq[design].T, scale[design].T
    gram_cols = np.ascontiguousarray(grams.transpose(2, 1, 0))  # [j]: G[:, j]
    beta = np.zeros_like(g)
    out = np.zeros((design.size, n_features))
    for _ in range(LASSO_MAX_ITER):
        step = np.zeros(live.size)
        for j in range(n_features):
            old = beta[j]
            rho = g[j] / n + col_sq[j] * old
            new = np.copysign(np.maximum(np.abs(rho) - alpha, 0.0),
                              rho) / scale[j]
            delta = new - old
            moved = gram_cols[j][:, design]
            moved *= delta
            g -= moved
            beta[j] = new
            np.maximum(step, np.abs(delta), out=step)
        done = step < LASSO_TOL
        if done.any():
            out[live[done]] = beta[:, done].T
            keep = ~done
            live, design, alpha, n = (a[keep] for a in (live, design,
                                                       alpha, n))
            g, beta, col_sq, scale = (a[:, keep] for a in (g, beta, col_sq,
                                                          scale))
            if not live.size:
                break
    out[live] = beta.T
    return np.ascontiguousarray(
        out.reshape(shape + (n_features,)).swapaxes(3, 4))


def signed_cv_r2(x_stack: np.ndarray, y: np.ndarray | CvTarget,
                 alphas: Sequence[float] = DEFAULT_ALPHAS,
                 n_splits: int = 5, splitter=None,
                 solve: Callable[[FoldStatistics, np.ndarray],
                                 np.ndarray] = ridge_coefficients
                 ) -> np.ndarray:
    """Unclipped pooled out-of-fold r², shape ``(len(alphas), H)``.

    ``1 - RSS/TSS`` pooled over every held-out row, with each fold's
    *training* mean of Y as the baseline predictor; 0 where Y has no
    variance.  Negative where a penalty overfits — the NULL density of
    Figure 13 — which :func:`batched_cross_val_r2` clips.  ``y`` may be
    a :class:`CvTarget` already prepared (``n_splits`` and ``splitter``
    are then those it was prepared with).  ``solve`` maps the
    :func:`fold_statistics` to coefficients: ridge by default, or
    :func:`lasso_coefficients`.

    All K folds are solved together and the RSS broadcasts over the fold
    axis, so for ridge the result is bitwise a loop over the folds.
    """
    alphas = np.asarray(positive_alphas(alphas))
    target = y if isinstance(y, CvTarget) else cv_target(y, n_splits,
                                                         splitter)
    stats = fold_statistics(x_stack, target)
    coef = solve(stats, alphas)
    rss = _fold_total(
        target.held_tss[:, None, None]
        - 2.0 * np.sum(coef * stats.p_b[:, None], axis=(3, 4))
        + np.sum(coef * (stats.q_b[:, None] @ coef), axis=(3, 4)))
    if target.tss <= 1e-12:
        return np.zeros_like(rss)
    return 1.0 - rss / target.tss


def best_cv_scores(signed: np.ndarray) -> np.ndarray:
    """Per design, the :meth:`CvResult.best_of` score of a
    :func:`signed_cv_r2` result: each penalty's score clipped below at 0
    (NaN counts as 0), then the best penalty's."""
    return np.max(np.where(signed > 0.0, signed, 0.0), axis=0)


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
