"""Figures 12 and 13: null distributions of r² (Appendix A).

Figure 12: OLS r² vs Wherry-adjusted r² under the NULL (n=1000, p=500) —
the plain statistic piles up near p/n while the adjusted one centres at 0.

Figure 13: ridge r² under the NULL — with a small λ it behaves like OLS
r²; with cross-validated λ it concentrates near 0 with smaller variance.

We run a scaled-down version (n=200, p=100) so the bench completes in
seconds; the distributional facts are scale-free.
"""

import numpy as np
import pytest
from scipy import stats

from repro.linmodel import LinearRegression, Ridge
from repro.linmodel.metrics import adjusted_r2, r2_score
from repro.scoring import sample_null_r2_ols, sample_null_r2_ridge_cv

N, P, DRAWS = 200, 100, 40


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
        model = Ridge(alpha=0.1).fit(x, y)
        small_lambda[i] = r2_score(y, model.predict(x))
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
