"""Property tests for the conditional-regression procedure (Appendix B).

Appendix B proves: for jointly multivariate-normal (X, Y, Z) with OLS
regressions, the residual cross-covariance equals Σxy − Σxz Σzz⁻¹ Σzy,
and the score is zero iff X ⊥ Y | Z.  These tests generate structured
Gaussian systems and check both directions, for the row-space oracle
``conditional_score`` and for the stacked scorers that replaced it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scoring import L1Scorer, L2Scorer
from tests.linmodel.estimators import (
    conditional_score,
    residual_cross_covariance,
    residualize,
)


def _chain_data(n: int, seed: int, noise: float = 0.3):
    """X -> Z -> Y chain: X ⊥ Y | Z holds."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    z = x + noise * rng.standard_normal((n, 1))
    y = z + noise * rng.standard_normal((n, 1))
    return x, y, z


class TestResidualCrossCovariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_schur_complement(self, seed):
        """Residual cross-cov equals Σxy − Σxz Σzz⁻¹ Σzy (sampled)."""
        rng = np.random.default_rng(seed)
        n = 500
        z = rng.standard_normal((n, 2))
        x = z @ rng.standard_normal((2, 2)) + rng.standard_normal((n, 2))
        y = z @ rng.standard_normal((2, 1)) + rng.standard_normal((n, 1))
        xc, yc, zc = x - x.mean(0), y - y.mean(0), z - z.mean(0)
        sxy = xc.T @ yc / n
        sxz = xc.T @ zc / n
        szz = zc.T @ zc / n
        szy = zc.T @ yc / n
        schur = sxy - sxz @ np.linalg.solve(szz, szy)
        direct = residual_cross_covariance(x, y, z)
        assert np.allclose(direct, schur, atol=1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_chain_gives_near_zero_cross_covariance(self, seed):
        x, y, z = _chain_data(800, seed)
        cov = residual_cross_covariance(x, y, z)
        assert np.abs(cov).max() < 0.05


#: The three-regression score: the oracle, and the stacked ridge and
#: Lasso scorers.
CONDITIONAL_SCORES = {
    "oracle": conditional_score,
    "l2": L2Scorer(standardize=False).score,
    "l1": L1Scorer().score,
}


@pytest.mark.parametrize("score", CONDITIONAL_SCORES.values(),
                         ids=CONDITIONAL_SCORES.keys())
class TestConditionalScore:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_conditional_independence_scores_near_zero(self, seed, score):
        x, y, z = _chain_data(600, seed)
        assert score(x, y, z) < 0.1

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_direct_edge_survives_conditioning(self, seed, score):
        """X -> Y directly, Z an independent variable: score stays high."""
        rng = np.random.default_rng(seed)
        n = 500
        x = rng.standard_normal((n, 1))
        y = x + 0.3 * rng.standard_normal((n, 1))
        z = rng.standard_normal((n, 1))
        assert score(x, y, z) > 0.5

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_collider_conditioning_opens_path(self, seed, score):
        """X -> Z <- Y: X ⊥ Y marginally, but NOT given the collider Z.

        This is the subtle causal structure of §3.1 — conditioning on a
        common effect *induces* dependence.
        """
        rng = np.random.default_rng(seed)
        n = 800
        x = rng.standard_normal((n, 1))
        y = rng.standard_normal((n, 1))
        z_collider = x + y + 0.2 * rng.standard_normal((n, 1))
        z_unrelated = rng.standard_normal((n, 1))
        blocked = score(x, y, z_unrelated)
        opened = score(x, y, z_collider)
        assert blocked < 0.1
        assert opened > 0.3


class TestResidualize:
    def test_residual_orthogonal_to_z(self, rng):
        z = rng.standard_normal((300, 3))
        target = z @ np.ones(3) + rng.standard_normal(300)
        res = residualize(target, z, alpha=0.0)
        zc = z - z.mean(axis=0)
        assert np.abs(zc.T @ res).max() < 1e-6

    def test_1d_round_trip(self, rng):
        z = rng.standard_normal((100, 1))
        target = rng.standard_normal(100)
        assert residualize(target, z).ndim == 1

    def test_residual_of_z_itself_is_zero(self, rng):
        z = rng.standard_normal((100, 2))
        res = residualize(z, z, alpha=0.0)
        assert np.abs(res).max() < 1e-8
