"""Univariate scoring: mean/max absolute pairwise Pearson correlation.

§3.5: "we can summarise the dependency between X and Y by first computing
the matrix of Pearson product-moment correlation ρij between each
univariate element Xi ∈ X and Yj ∈ Y", then take the mean (CorrMean) or
max (CorrMax) of absolute values.

When Z is non-empty the univariate scorers follow the paper and fall back
to the unified conditional mechanism: X and Y are first residualised on Z
and the correlations are computed between the residuals (which for a
single pair is exactly the partial correlation).

``score_batch`` centres/normalises Y once per batch, residualises Y and
the whole batch of X matrices through one shared SVD of Z when
conditioning, and computes all cross-correlation matrices as stacked 3-D
matmuls.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.linmodel.batched import RESIDUAL_ALPHA, ResidualBasis, as_stack
from repro.scoring.base import (
    Scorer,
    group_by_shape,
    register_scorer,
    validate_batch,
)


def correlation_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|ρij| matrix between the columns of X (nx) and Y (ny): shape (nx, ny).

    Constant columns have undefined correlation; those entries are 0
    (a flat series carries no dependence evidence).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    x_norm = np.sqrt(np.einsum("ij,ij->j", xc, xc))
    y_norm = np.sqrt(np.einsum("ij,ij->j", yc, yc))
    denom = np.outer(x_norm, y_norm)
    cross = xc.T @ yc
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 1e-12, cross / np.where(denom > 1e-12, denom, 1.0), 0.0)
    return np.abs(np.clip(rho, -1.0, 1.0))


class _CorrScorer(Scorer):
    """Shared implementation of both correlation summarisers."""

    def __init__(self, mode: str) -> None:
        if mode not in ("mean", "max"):
            raise ValueError(f"mode must be 'mean' or 'max', got {mode!r}")
        self._mode = mode
        self.name = "CorrMean" if mode == "mean" else "CorrMax"

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Vectorized scoring of many X against one shared (Y, Z)."""
        out = np.empty(len(xs))
        if not len(xs):
            return out
        validated, y_v, z_v = validate_batch(xs, y, z)
        z_basis = None
        if z_v is not None:
            z_basis = ResidualBasis.of(z_v, RESIDUAL_ALPHA)
            y_v = z_basis.residualize(y_v[None])[0]
        yc = y_v - y_v.mean(axis=0)
        y_norm = np.sqrt(np.einsum("ij,ij->j", yc, yc))
        for _, indices in group_by_shape(validated).items():
            stack = as_stack([validated[i] for i in indices])
            if z_basis is not None:
                stack = z_basis.residualize(stack)
            xc = stack - stack.mean(axis=1)[:, None, :]
            x_norm = np.sqrt(np.einsum("hij,hij->hj", xc, xc))
            denom = x_norm[:, :, None] * y_norm[None, None, :]
            cross = np.swapaxes(xc, 1, 2) @ yc
            with np.errstate(invalid="ignore", divide="ignore"):
                rho = np.where(denom > 1e-12,
                               cross / np.where(denom > 1e-12, denom, 1.0),
                               0.0)
            rho = np.abs(np.clip(rho, -1.0, 1.0))
            reduce = np.mean if self._mode == "mean" else np.max
            for pos, i in enumerate(indices):
                out[i] = float(reduce(rho[pos]))
        return out


class CorrMeanScorer(_CorrScorer):
    """Mean absolute pairwise correlation (the paper's CorrMean)."""

    def __init__(self) -> None:
        super().__init__("mean")


class CorrMaxScorer(_CorrScorer):
    """Max absolute pairwise correlation (the paper's CorrMax)."""

    def __init__(self) -> None:
        super().__init__("max")


register_scorer("CorrMean", CorrMeanScorer)
register_scorer("CorrMax", CorrMaxScorer)
