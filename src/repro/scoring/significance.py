"""False-positive control (Appendix A).

Under the NULL hypothesis of no dependence, the OLS r² between an
``n x p`` design and a univariate target is Beta((p-1)/2, (n-p)/2).
Wherry's adjustment de-biases it, Chebyshev's inequality turns an
observed score into a conservative p-value

    P(r²_adj >= s) <= 2(p-1) / ((n-p)(n-1) s²),

and Bonferroni / Benjamini-Hochberg corrections account for the engine
scoring thousands of hypotheses simultaneously.  The Beta law itself,
Wherry's adjustment of one r², and the samplers that regenerate Figures
12 and 13 live in ``benchmarks/bench_figure12_13_null.py``, their one
user, so scipy stays off the engine's import path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def var_adjusted_r2(n_samples: int, n_predictors: int) -> float:
    """Variance of r²_adj under the NULL: 2(p-1) / ((n-p)(n-1))."""
    if n_samples <= n_predictors:
        raise ValueError(
            f"need n > p, got n={n_samples}, p={n_predictors}"
        )
    return 2.0 * (n_predictors - 1) / ((n_samples - n_predictors)
                                       * (n_samples - 1))


def p_value_chebyshev(score: float, n_samples: int,
                      n_predictors: int) -> float:
    """Conservative p-value for one score via Chebyshev's inequality.

    For the paper's L2-P50 setting (n=1440, p=50) this evaluates to
    ≈ 4.9e-5 / s², matching Appendix A.2.
    """
    if score <= 0.0:
        return 1.0
    bound = var_adjusted_r2(n_samples, n_predictors) / (score * score)
    return float(min(1.0, bound))


def bonferroni(p_values: Sequence[float]) -> np.ndarray:
    """Bonferroni-adjusted p-values: min(1, m * p)."""
    p = np.asarray(p_values, dtype=np.float64)
    return np.minimum(1.0, p * p.size)


def benjamini_hochberg(p_values: Sequence[float],
                       q: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg significance mask at FDR level ``q``.

    Returns a boolean array marking the hypotheses declared significant.
    """
    p = np.asarray(p_values, dtype=np.float64)
    m = p.size
    if m == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(p)
    thresholds = q * (np.arange(1, m + 1) / m)
    passed = p[order] <= thresholds
    mask = np.zeros(m, dtype=bool)
    if passed.any():
        cutoff = int(np.max(np.nonzero(passed)[0]))
        mask[order[: cutoff + 1]] = True
    return mask
