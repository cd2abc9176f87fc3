"""Lagged-feature scoring (§3.5's footnote).

"The user could specify lagged features from the past when preparing the
input data (by using LAG function in SQL)."  The SQL route works (LAG is
implemented); this module provides the equivalent directly on matrices:
a scorer wrapper that augments X with its own past values before scoring,
which detects delayed effects (queueing, batching) that instantaneous
regression misses.

``LaggedScorer`` is registered as ``L2-lag2`` (the default (0, 1, 2)
lags over the inner L2): lagging is per-X and deterministic, so
``prepare`` lags Z once and hands Y and the lagged Z to the inner
scorer's ``prepare``, and ``score_prepared`` lags each X once and hands
the whole batch to the inner scorer.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.scoring.base import (
    Scorer,
    ScoringError,
    register_scorer,
    validate_target,
    validate_xs,
)
from repro.scoring.joint import L2Scorer


def lag_matrix(matrix: np.ndarray, lags: Sequence[int]) -> np.ndarray:
    """Stack lagged copies of each column: output width = nx * len(lags).

    Lag 0 is the identity; lag k shifts values k steps *forward* in time
    (row t holds the value from t-k), back-filling the first k rows with
    the initial value so the sample count is preserved.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    if not lags:
        raise ScoringError("need at least one lag")
    n = matrix.shape[0]
    blocks = []
    for lag in lags:
        if lag < 0:
            raise ScoringError(f"lags must be non-negative, got {lag}")
        if lag >= n:
            raise ScoringError(
                f"lag {lag} is not smaller than the sample count {n}"
            )
        if lag == 0:
            blocks.append(matrix)
            continue
        shifted = np.empty_like(matrix)
        shifted[lag:] = matrix[: n - lag]
        shifted[:lag] = matrix[0]
        blocks.append(shifted)
    return np.hstack(blocks)


class LaggedTarget(NamedTuple):
    """What :meth:`LaggedScorer.prepare` returns: the row count X must
    match and the inner scorer's prepared target."""

    rows: int
    inner: Any


class LaggedScorer(Scorer):
    """Wraps another scorer, augmenting X (and Z) with lagged copies."""

    def __init__(self, lags: Sequence[int] = (0, 1, 2),
                 inner: Scorer | None = None) -> None:
        self.lags = tuple(int(lag) for lag in lags)
        if not self.lags:
            raise ScoringError("need at least one lag")
        self._inner = inner if inner is not None else L2Scorer()
        self.name = f"{self._inner.name}-lag{max(self.lags)}"

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Vectorized scoring: lag each X once, batch the inner scorer."""
        if not len(xs):
            return np.empty(0)
        return self.score_prepared(xs, self.prepare(y, z))

    def prepare(self, y: np.ndarray,
                z: np.ndarray | None = None) -> LaggedTarget:
        """The inner scorer's target over Y and the lagged Z.

        Lagging Z preserves the shared-(Y, Z) structure (one lagged Z
        per target), so the inner scorer amortises all Y/Z-side work
        exactly as for unlagged hypotheses.
        """
        y_v, z_v = validate_target(y, z)
        z_lagged = lag_matrix(z_v, self.lags) if z_v is not None else None
        return LaggedTarget(y_v.shape[0], self._inner.prepare(y_v, z_lagged))

    def score_prepared(self, xs: Sequence[np.ndarray],
                       target: LaggedTarget) -> np.ndarray:
        lagged = [lag_matrix(x, self.lags)
                  for x in validate_xs(xs, target.rows)]
        return self._inner.score_prepared(lagged, target.inner)


def best_lag(x: np.ndarray, y: np.ndarray, max_lag: int = 10,
             scorer: Scorer | None = None) -> tuple[int, float]:
    """The single lag at which X best explains Y, with its score.

    Scans lags 0..max_lag one at a time (not jointly), which keeps the
    predictor count constant and makes the scores comparable.
    """
    if scorer is None:
        scorer = L2Scorer()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    best = (0, -np.inf)
    for lag in range(max_lag + 1):
        lagged = lag_matrix(x, (lag,))
        value = scorer.score(lagged, y)
        if value > best[1]:
            best = (lag, value)
    return best


register_scorer("L2-lag2", lambda: LaggedScorer())
