"""Figures 12 and 13: null distributions of r² (Appendix A).

Figure 12: OLS r² vs Wherry-adjusted r² under the NULL (n=1000, p=500) —
the plain statistic piles up near p/n while the adjusted one centres at 0.

Figure 13: ridge r² under the NULL — with a small λ it behaves like OLS
r²; with cross-validated λ it concentrates near 0 with smaller variance.

We run a scaled-down version (n=200, p=100) so the bench completes in
seconds; the distributional facts are scale-free.

The Beta law, Wherry's adjustment and the two NULL samplers live here,
beside their one benchmark (the tests load this file by path).  The
OLS and ridge fits are the row-space estimators of
``tests/linmodel/estimators.py``, loaded by path too.
"""

import importlib.util
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from scipy import stats

from repro.linmodel.batched import signed_cv_r2

N, P, DRAWS = 200, 100, 40


def load_estimators():
    """The module ``tests/linmodel/estimators.py``."""
    path = (Path(__file__).resolve().parents[1] / "tests" / "linmodel"
            / "estimators.py")
    spec = importlib.util.spec_from_file_location("linmodel_estimators",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ESTIMATORS = load_estimators()


def adjusted_r2(r2: float, n_samples: int, n_predictors: int) -> float:
    """Wherry's adjustment (Appendix A): r²_adj = 1 - (1-r²)(n-1)/(n-p).

    For p >= n the adjustment is undefined; we return the conservative 0.0
    because an OLS fit with p >= n interpolates and carries no evidence.
    """
    if n_samples <= n_predictors:
        return 0.0
    factor = (n_samples - 1) / (n_samples - n_predictors)
    return 1.0 - (1.0 - r2) * factor


def sample_null_r2_ols(n_samples: int, n_predictors: int, n_draws: int,
                       seed: int = 0, adjusted: bool = False) -> np.ndarray:
    """Empirical NULL r² (or r²_adj) draws for OLS — Figure 12's data."""
    rng = np.random.default_rng(seed)
    out = np.empty(n_draws)
    for i in range(n_draws):
        x = rng.standard_normal((n_samples, n_predictors))
        y = rng.standard_normal(n_samples)
        model = ESTIMATORS.LinearRegression().fit(x, y)
        r2 = ESTIMATORS.r2_score(y, model.predict(x))
        out[i] = adjusted_r2(r2, n_samples, n_predictors) if adjusted else r2
    return out


def sample_null_r2_ridge_cv(n_samples: int, n_predictors: int, n_draws: int,
                            alphas: Sequence[float] = (0.1, 1e2, 1e4, 1e6),
                            seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Empirical NULL cross-validated ridge r² — Figure 13's data.

    Returns ``(scores, chosen_alphas)``.  With CV-selected λ the score
    concentrates near 0 with small variance, behaving like OLS r²_adj;
    the bimodality the paper observed arises when different draws select
    different λ values.  Scores are the signed pooled r² (no clipping at
    0) so the NULL density around zero is visible, as in the paper's
    figure; ties between penalties go to the heavier one.
    """
    rng = np.random.default_rng(seed)
    scores = np.empty(n_draws)
    chosen = np.empty(n_draws)
    for i in range(n_draws):
        x = rng.standard_normal((n_samples, n_predictors))
        y = rng.standard_normal(n_samples)
        by_alpha = dict(zip(alphas, signed_cv_r2(x[None], y, alphas)[:, 0]))
        chosen[i] = max(by_alpha, key=lambda a: (by_alpha[a], a))
        scores[i] = by_alpha[chosen[i]]
    return scores, chosen


def null_r2_distribution(n_samples: int, n_predictors: int):
    """The Beta((p-1)/2, (n-p)/2) law of OLS r² under the NULL.

    Requires 1 < p < n; the mean is (p-1)/(n-1), which tends to 1 as
    p -> n — the "overfitting to the data" intuition of Appendix A.1.
    """
    if not 1 < n_predictors < n_samples:
        raise ValueError(
            f"need 1 < p < n, got p={n_predictors}, n={n_samples}"
        )
    a = (n_predictors - 1) / 2.0
    b = (n_samples - n_predictors) / 2.0
    return stats.beta(a, b)


@pytest.fixture(scope="module")
def ols_draws():
    plain = sample_null_r2_ols(N, P, DRAWS, seed=0)
    adjusted = np.array([adjusted_r2(r, N, P) for r in plain])
    return plain, adjusted


def _histogram_line(values, lo=-0.2, hi=1.0, bins=12):
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    bars = "".join("▁▂▃▄▅▆▇█"[min(7, int(c / max(1, counts.max()) * 7))]
                   for c in counts)
    return f"[{lo:+.1f} … {hi:+.1f}] {bars}"


def test_figure12_report(ols_draws, benchmark):
    plain, adjusted = ols_draws
    benchmark.pedantic(lambda: np.histogram(plain, bins=12),
                       rounds=1, iterations=1)
    print()
    print("=" * 72)
    print(f"Figure 12 — NULL density of r² (n={N}, p={P}, {DRAWS} draws)")
    print("=" * 72)
    print(f"OLS r²      mean={plain.mean():+.3f}  "
          + _histogram_line(plain))
    print(f"OLS r²_adj  mean={adjusted.mean():+.3f}  "
          + _histogram_line(adjusted))


def test_figure12_bias_structure(ols_draws, benchmark):
    plain, adjusted = benchmark.pedantic(lambda: ols_draws,
                                         rounds=1, iterations=1)
    expected_mean = (P - 1) / (N - 1)
    assert plain.mean() == pytest.approx(expected_mean, abs=0.05)
    assert abs(adjusted.mean()) < 0.08
    # The Beta law's spread brackets the empirical draws.
    dist = null_r2_distribution(N, P)
    assert plain.std() == pytest.approx(dist.std(), rel=0.5)


@pytest.fixture(scope="module")
def ridge_draws():
    rng = np.random.default_rng(7)
    small_lambda = np.empty(DRAWS)
    for i in range(DRAWS):
        x = rng.standard_normal((N, P))
        y = rng.standard_normal(N)
        model = ESTIMATORS.Ridge(alpha=0.1).fit(x, y)
        small_lambda[i] = ESTIMATORS.r2_score(y, model.predict(x))
    cv_scores, chosen = sample_null_r2_ridge_cv(N, P, DRAWS, seed=8)
    return small_lambda, cv_scores, chosen


def test_figure13_report(ridge_draws, benchmark):
    small_lambda, cv_scores, chosen = ridge_draws
    benchmark.pedantic(lambda: np.histogram(cv_scores, bins=12),
                       rounds=1, iterations=1)
    print()
    print("=" * 72)
    print(f"Figure 13 — NULL density of ridge r² (n={N}, p={P})")
    print("=" * 72)
    print(f"λ=0.1 (in-sample)  mean={small_lambda.mean():+.3f}  "
          + _histogram_line(small_lambda))
    print(f"CV-selected λ      mean={cv_scores.mean():+.3f}  "
          + _histogram_line(cv_scores))
    print(f"chosen λ values: "
          f"{sorted(set(float(c) for c in chosen))}")


def test_figure13_structure(ridge_draws, benchmark):
    small_lambda, cv_scores, chosen = benchmark.pedantic(
        lambda: ridge_draws, rounds=1, iterations=1)
    # Small λ behaves like OLS r²: biased towards (p-1)/(n-1).
    assert small_lambda.mean() > 0.3
    # CV-selected λ concentrates near 0 (like r²_adj) with low variance.
    assert cv_scores.mean() < 0.1
    assert cv_scores.std() < small_lambda.std() + 0.05
    # The CV consistently selects heavy shrinkage under the NULL.
    assert np.median(chosen) >= 100.0
