"""Granger causality: the temporal-precedence baseline (§7 related work).

The paper's related work ranks causes "based on timings of change
propagation" [19, 35] and cites Granger analysis in neuroscience [32].
This module implements the classical bivariate Granger test on top of
:mod:`repro.linmodel`: does X's past improve the prediction of Y beyond
Y's own past?

    restricted:    Y_t ~ Y_{t-1..t-p}
    unrestricted:  Y_t ~ Y_{t-1..t-p} + X_{t-1..t-p}

with the usual F statistic on the residual sum of squares.  Granger
direction complements ExplainIt!'s contemporaneous regression scores:
per-minute aggregation often destroys the fine timing Granger needs,
which is one more reason the paper leans on conditioning and human
judgement instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linmodel.linear import LinearRegression


class GrangerError(Exception):
    """Raised for degenerate inputs."""


@dataclass(frozen=True)
class GrangerResult:
    """Outcome of one Granger test (does X Granger-cause Y?)."""

    f_statistic: float
    p_value: float
    order: int
    n_effective: int

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def _lag_design(series: np.ndarray, order: int) -> np.ndarray:
    """Columns [x_{t-1}, ..., x_{t-order}] for t in [order, n)."""
    n = series.size
    return np.column_stack([series[order - k: n - k]
                            for k in range(1, order + 1)])


def granger_test(x: np.ndarray, y: np.ndarray,
                 order: int = 2) -> GrangerResult:
    """Test whether X Granger-causes Y at the given lag order."""
    from scipy import stats  # on first use: keeps scipy off the import path

    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise GrangerError(f"length mismatch: {x.size} vs {y.size}")
    if order < 1:
        raise GrangerError(f"order must be >= 1, got {order}")
    n_effective = y.size - order
    # Need slack for 2*order + intercept parameters plus df in the F test.
    if n_effective <= 2 * order + 2:
        raise GrangerError(
            f"series too short (n={y.size}) for order {order}"
        )
    target = y[order:]
    y_lags = _lag_design(y, order)
    x_lags = _lag_design(x, order)

    restricted = LinearRegression().fit(y_lags, target)
    rss_restricted = float(np.sum(restricted.residuals(y_lags, target)**2))
    full_design = np.hstack([y_lags, x_lags])
    unrestricted = LinearRegression().fit(full_design, target)
    rss_full = float(np.sum(
        unrestricted.residuals(full_design, target)**2))

    df_num = order
    df_den = n_effective - 2 * order - 1
    if rss_full <= 1e-12:
        # Perfect fit: treat as maximal evidence.
        return GrangerResult(f_statistic=np.inf, p_value=0.0,
                             order=order, n_effective=n_effective)
    f_stat = ((rss_restricted - rss_full) / df_num) / (rss_full / df_den)
    f_stat = max(f_stat, 0.0)
    p_value = float(stats.f.sf(f_stat, df_num, df_den))
    return GrangerResult(f_statistic=float(f_stat), p_value=p_value,
                         order=order, n_effective=n_effective)


def granger_direction(x: np.ndarray, y: np.ndarray, order: int = 2,
                      alpha: float = 0.05) -> str:
    """Summarise both test directions.

    Returns ``"x->y"``, ``"y->x"``, ``"both"`` (feedback) or ``"none"``.
    """
    forward = granger_test(x, y, order=order)
    backward = granger_test(y, x, order=order)
    fwd = forward.significant(alpha)
    bwd = backward.significant(alpha)
    if fwd and bwd:
        return "both"
    if fwd:
        return "x->y"
    if bwd:
        return "y->x"
    return "none"
