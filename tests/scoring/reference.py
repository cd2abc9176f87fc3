"""Sequential reference scorers and ranking loop — the parity oracle.

Until the stacked ``score_batch`` kernels became the only implementation
in ``src/``, every built-in scorer also carried a hand-written 2-D
``score(x, y, z)`` and ``rank_families`` scored hypotheses one at a time
in-line.  Those bodies live on here, verbatim, composed from the 2-D
row-space estimators of ``tests/linmodel/estimators.py``: one
hypothesis at a time, no stacking, nothing shared across hypotheses.

- :func:`reference_cross_val_r2` is the per-fold SVD cross-validation
  that ``src/`` replaced with the Gram form; ``ReferenceL2`` uses it in
  both branches, and ``ReferenceL1`` fits one row-space ``Lasso`` per
  fold and penalty, so neither oracle shares CV code with ``src/``.
  :func:`assert_matches_oracle` is the one parity contract for scores
  that pass through either (|Δscore| ≤ 1e-9, same ``best_alpha``, same
  order wherever the oracle separates two scores).  Every other
  reference is compared bit for bit.

- ``Reference*`` classes mirror the constructor parameters of the
  scorer they shadow; :func:`reference_for` maps a production scorer
  (instance or registry name) to its reference.
- :func:`reference_rank` is the plain per-hypothesis ranking loop and
  builds its Score Table by hand, so it is also independent of
  ``build_score_table``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.autoselect import AutoScorer
from repro.core.ranking import RankedFamily, ScoreTable, ranking_sort_key
from repro.linmodel.batched import DEFAULT_ALPHAS, CvResult
from repro.linmodel.crossval import TimeSeriesKFold
from repro.scoring.base import Scorer, get_scorer, validate_triple
from repro.scoring.joint import L1Scorer, L2Scorer
from repro.scoring.lagged import LaggedScorer, lag_matrix
from repro.scoring.projection import (
    PcaL2Scorer,
    ProjectedL2Scorer,
    random_projection,
)
from repro.scoring.significance import (
    benjamini_hochberg,
    bonferroni,
    p_value_chebyshev,
)
from repro.scoring.univariate import _CorrScorer, correlation_matrix
from tests.linmodel.estimators import (
    Lasso,
    RidgeSvdFactor,
    StandardScaler,
    residualize,
)


#: Largest |Δscore| allowed between a Gram-form score and its row-space
#: oracle.
SCORE_TOLERANCE = 1e-9


def reference_cross_val_r2(x, y, alphas=DEFAULT_ALPHAS, n_splits=5,
                           splitter=None):
    """Pooled out-of-fold r² per penalty from one SVD per training fold."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    n_samples = x.shape[0]
    if splitter is None:
        splitter = TimeSeriesKFold(n_splits=n_splits)
    rss = {float(a): 0.0 for a in alphas}
    tss = 0.0
    for train_idx, valid_idx in splitter.split(n_samples):
        factor = RidgeSvdFactor(x[train_idx], y[train_idx])
        y_valid = y[valid_idx]
        train_mean = y[train_idx].mean(axis=0)
        tss += float(np.sum((y_valid - train_mean) ** 2))
        for alpha in rss:
            coef, intercept = factor.solve(alpha)
            pred = x[valid_idx] @ coef + intercept
            rss[alpha] += float(np.sum((y_valid - pred) ** 2))
    if tss <= 1e-12:
        scores = {alpha: 0.0 for alpha in rss}
    else:
        scores = {alpha: max(0.0, 1.0 - fold_rss / tss)
                  for alpha, fold_rss in rss.items()}
    best_alpha = max(scores, key=lambda a: (scores[a], a))
    return CvResult(
        best_alpha=best_alpha,
        best_score=scores[best_alpha],
        scores_by_alpha=scores,
        n_samples=n_samples,
        n_features=x.shape[1],
    )


def _table_keys(table):
    """Row keys of a Score Table in rank order: (family, occurrence)."""
    seen = Counter()
    keys = []
    for row in table.results:
        keys.append((row.family, seen[row.family]))
        seen[row.family] += 1
    return keys


def _keyed_scores(value):
    """``{key: score}`` of a CvResult, Score Table, mapping or float(s)."""
    if isinstance(value, CvResult):
        return {"best": value.best_score, **value.scores_by_alpha}
    if isinstance(value, ScoreTable):
        return dict(zip(_table_keys(value), (r.score for r in value.results)))
    if isinstance(value, dict):
        return dict(value)
    return dict(enumerate(np.atleast_1d(value).tolist()))


def assert_matches_oracle(actual, expected):
    """The parity contract between a Gram-form result and its row-space
    oracle (the per-fold SVD for ridge, the per-fold ``Lasso`` for L1).

    ``actual`` / ``expected`` are a :class:`CvResult`, a Score Table, a
    ``{name: score}`` mapping, or a float or array of floats.  Every
    score agrees to :data:`SCORE_TOLERANCE`; ``best_alpha`` is equal
    where exposed; a Score Table keeps the oracle's family order wherever
    adjacent oracle scores differ by more than twice the tolerance
    (near-ties may reorder).
    """
    got, want = _keyed_scores(actual), _keyed_scores(expected)
    assert got.keys() == want.keys()
    for key, score in want.items():
        assert abs(got[key] - score) <= SCORE_TOLERANCE, (key, got[key], score)
    if isinstance(expected, CvResult):
        assert actual.best_alpha == expected.best_alpha
    if isinstance(expected, ScoreTable):
        position = {key: i for i, key in enumerate(_table_keys(actual))}
        oracle = list(zip(_table_keys(expected), expected.results))
        for (key, first), (next_key, second) in zip(oracle, oracle[1:]):
            if first.score - second.score > 2 * SCORE_TOLERANCE:
                assert position[key] < position[next_key]


class ReferenceL2:
    def __init__(self, alphas, n_splits, standardize):
        self.alphas = alphas
        self.n_splits = n_splits
        self.standardize = standardize

    def score(self, x, y, z=None):
        x, y, z = validate_triple(x, y, z)
        if self.standardize:
            x = StandardScaler().fit_transform(x)
            y = StandardScaler().fit_transform(y)
            if z is not None:
                z = StandardScaler().fit_transform(z)
        if z is not None:
            x = residualize(x, z)
            y = residualize(y, z)
        result = reference_cross_val_r2(x, y, alphas=self.alphas,
                                        n_splits=self.n_splits)
        return float(np.clip(result.best_score, 0.0, 1.0))


class ReferenceL1:
    def __init__(self, alphas, n_splits):
        self.alphas = alphas
        self.n_splits = n_splits

    def score(self, x, y, z=None):
        x, y, z = validate_triple(x, y, z)
        x = StandardScaler().fit_transform(x)
        y = StandardScaler().fit_transform(y)
        if z is not None:
            z = StandardScaler().fit_transform(z)
            x = residualize(x, z)
            y = residualize(y, z)
        splitter = TimeSeriesKFold(n_splits=self.n_splits)
        rss = {alpha: 0.0 for alpha in self.alphas}
        tss = 0.0
        for train_idx, valid_idx in splitter.split(x.shape[0]):
            y_valid = y[valid_idx]
            train_mean = y[train_idx].mean(axis=0)
            tss += float(np.sum((y_valid - train_mean) ** 2))
            for alpha in self.alphas:
                model = Lasso(alpha=alpha).fit(x[train_idx], y[train_idx])
                pred = model.predict(x[valid_idx])
                if pred.ndim == 1:
                    pred = pred[:, None]
                rss[alpha] += float(np.sum((y_valid - pred) ** 2))
        if tss <= 1e-12:
            return 0.0
        best = max(max(0.0, 1.0 - fold_rss / tss) for fold_rss in rss.values())
        return float(np.clip(best, 0.0, 1.0))


class ReferenceCorr:
    def __init__(self, mode):
        self._mode = mode

    def score(self, x, y, z=None):
        x, y, z = validate_triple(x, y, z)
        if z is not None:
            x = residualize(x, z)
            y = residualize(y, z)
        rho = correlation_matrix(x, y)
        if self._mode == "mean":
            return float(np.mean(rho))
        return float(np.max(rho))


class ReferenceLagged:
    def __init__(self, lags, inner):
        self.lags = lags
        self._inner = inner

    def score(self, x, y, z=None):
        x, y, z = validate_triple(x, y, z)
        x_lagged = lag_matrix(x, self.lags)
        z_lagged = lag_matrix(z, self.lags) if z is not None else None
        return self._inner.score(x_lagged, y, z_lagged)


class ReferenceProjectedL2:
    def __init__(self, d, n_projections, seed, inner):
        self.d = d
        self.n_projections = n_projections
        self.seed = seed
        self._inner = inner

    def score(self, x, y, z=None):
        x, y, z = validate_triple(x, y, z)
        needs_projection = (
            x.shape[1] > self.d
            or y.shape[1] > self.d
            or (z is not None and z.shape[1] > self.d)
        )
        if not needs_projection:
            return self._inner.score(x, y, z)
        rng = np.random.default_rng(self.seed)
        scores = []
        for _ in range(self.n_projections):
            px = random_projection(x, self.d, rng)
            py = random_projection(y, self.d, rng)
            pz = random_projection(z, self.d, rng) if z is not None else None
            scores.append(self._inner.score(px, py, pz))
        return float(np.mean(scores))


class ReferencePcaL2:
    def __init__(self, d, inner):
        self.d = d
        self._inner = inner

    def score(self, x, y, z=None):
        x, y, z = validate_triple(x, y, z)
        x = self._truncate(x)
        if z is not None:
            z = self._truncate(z)
        return self._inner.score(x, y, z)

    def _truncate(self, matrix):
        if matrix.shape[1] <= self.d:
            return matrix
        centred = matrix - matrix.mean(axis=0)
        u, s, _ = np.linalg.svd(centred, full_matrices=False)
        return u[:, : self.d] * s[: self.d]


class ReferenceAuto:
    """``AutoScorer``'s routing over reference scorers.

    ``AutoScorer`` is written as a per-hypothesis ``score`` in ``src/``
    too; the reference differs only in what it routes *to*.
    """

    def __init__(self, auto):
        self._univariate = reference_for(auto._univariate)
        self._joint = reference_for(auto._joint)

    def score(self, x, y, z=None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        n_samples, width = x.shape
        if width == 1 and z is None:
            return self._univariate.score(x, y, z)
        budget = max(10, n_samples // 4)
        if width > budget:
            projected = reference_for(ProjectedL2Scorer(d=min(50, budget)))
            return projected.score(x, y, z)
        return self._joint.score(x, y, z)


def reference_for(scorer):
    """The sequential reference of a production scorer (or its name)."""
    if isinstance(scorer, str):
        scorer = get_scorer(scorer)
    if isinstance(scorer, L1Scorer):
        return ReferenceL1(scorer.alphas, scorer.n_splits)
    if isinstance(scorer, L2Scorer):
        return ReferenceL2(scorer.alphas, scorer.n_splits, scorer.standardize)
    if isinstance(scorer, _CorrScorer):
        return ReferenceCorr(scorer._mode)
    if isinstance(scorer, LaggedScorer):
        return ReferenceLagged(scorer.lags, reference_for(scorer._inner))
    if isinstance(scorer, ProjectedL2Scorer):
        return ReferenceProjectedL2(scorer.d, scorer.n_projections,
                                    scorer.seed, reference_for(scorer._inner))
    if isinstance(scorer, PcaL2Scorer):
        return ReferencePcaL2(scorer.d, reference_for(scorer._inner))
    if isinstance(scorer, AutoScorer):
        return ReferenceAuto(scorer)
    if type(scorer).score is not Scorer.score:
        return scorer      # a custom score-only scorer is already sequential
    raise TypeError(f"no sequential reference for {scorer!r}")


def reference_rank(hypotheses, scorer, top_k=20):
    """The plain ranking loop: one ``score`` call per hypothesis.

    ``scorer`` is a registry name or a scorer instance, mapped through
    :func:`reference_for`.
    """
    if isinstance(scorer, str):
        scorer = get_scorer(scorer)
    name = scorer.name
    scorer = reference_for(scorer)
    if not hypotheses:
        return ScoreTable(results=[], scorer_name=name, target="",
                          n_hypotheses=0)
    target_name = hypotheses[0].y.name
    condition = (hypotheses[0].z.name if hypotheses[0].z is not None
                 else None)

    scored = []
    for hypothesis in hypotheses:
        x, y, z = hypothesis.matrices()
        scored.append((hypothesis, float(scorer.score(x, y, z))))

    scored.sort(key=lambda item: ranking_sort_key(item[1], item[0].name))
    n_samples = hypotheses[0].y.n_samples
    p_values = np.array([
        p_value_chebyshev(score, n_samples,
                          max(2, min(h.x.n_features, n_samples - 1)))
        for h, score in scored
    ])
    p_bonf = bonferroni(p_values)
    bh_mask = benjamini_hochberg(p_values)

    results = [
        RankedFamily(
            rank=i + 1,
            family=h.name,
            score=score,
            n_features=h.x.n_features,
            p_value=float(p_values[i]),
            p_bonferroni=float(p_bonf[i]),
            significant_bh=bool(bh_mask[i]),
        )
        for i, (h, score) in enumerate(scored)
    ]
    return ScoreTable(
        results=results,
        scorer_name=name,
        target=target_name,
        condition=condition,
        n_hypotheses=len(hypotheses),
        all_scores={h.name: score for h, score in scored},
        top_k=top_k,
    )
