"""Conditional-independence tests on data.

The PC algorithm (and the paper's Appendix B analysis) rests on partial
correlation: for jointly-Gaussian variables, ``X ⊥ Y | Z`` iff the
partial correlation of X and Y given Z is zero.  The test uses Fisher's
z-transform for its null distribution.
"""

from __future__ import annotations

import math

import numpy as np


class IndependenceTestError(Exception):
    """Raised on degenerate inputs (too few samples, singular Z)."""


def partial_correlation(x: np.ndarray, y: np.ndarray,
                        z: np.ndarray | None = None) -> float:
    """Partial correlation of two univariate series given Z columns."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise IndependenceTestError(
            f"length mismatch: {x.size} vs {y.size}"
        )
    if z is not None:
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[:, None]
        if z.shape[1] == 0:
            z = None
    if z is not None:
        design = np.column_stack([np.ones(x.size), z])
        coeffs_x, *_ = np.linalg.lstsq(design, x, rcond=None)
        coeffs_y, *_ = np.linalg.lstsq(design, y, rcond=None)
        x = x - design @ coeffs_x
        y = y - design @ coeffs_y
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx <= 1e-12 or sy <= 1e-12:
        return 0.0
    rho = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
    return float(np.clip(rho, -1.0, 1.0))


def ci_test(x: np.ndarray, y: np.ndarray, z: np.ndarray | None = None,
            alpha: float = 0.05) -> tuple[bool, float]:
    """Fisher-z conditional independence test.

    Returns ``(independent, p_value)`` where ``independent`` is the test
    decision at level ``alpha`` (True = fail to reject independence).
    """
    from scipy import stats  # on first use: keeps scipy off the import path

    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    k = 0
    if z is not None:
        z_arr = np.asarray(z, dtype=np.float64)
        k = 1 if z_arr.ndim == 1 else z_arr.shape[1]
    dof = n - k - 3
    if dof <= 0:
        raise IndependenceTestError(
            f"not enough samples (n={n}) for conditioning set of size {k}"
        )
    rho = partial_correlation(x, y, z)
    rho = float(np.clip(rho, -1 + 1e-12, 1 - 1e-12))
    z_stat = 0.5 * math.log((1 + rho) / (1 - rho)) * math.sqrt(dof)
    p_value = 2.0 * (1.0 - stats.norm.cdf(abs(z_stat)))
    return p_value > alpha, float(p_value)
