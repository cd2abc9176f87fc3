"""Unit tests for lagged-feature scoring."""

import numpy as np
import pytest

from repro.scoring.base import ScoringError
from repro.scoring.joint import L2Scorer
from repro.scoring.lagged import LaggedScorer, best_lag, lag_matrix
from tests.scoring.reference import assert_matches_oracle, reference_for


class TestLagMatrix:
    def test_lag_zero_identity(self, rng):
        x = rng.standard_normal((20, 2))
        assert np.array_equal(lag_matrix(x, (0,)), x)

    def test_shift_semantics(self):
        x = np.arange(5.0)[:, None]
        lagged = lag_matrix(x, (2,))
        assert lagged[:, 0].tolist() == [0.0, 0.0, 0.0, 1.0, 2.0]

    def test_width_multiplies(self, rng):
        x = rng.standard_normal((30, 3))
        assert lag_matrix(x, (0, 1, 5)).shape == (30, 9)

    def test_validation(self, rng):
        x = rng.standard_normal((10, 1))
        with pytest.raises(ScoringError):
            lag_matrix(x, ())
        with pytest.raises(ScoringError):
            lag_matrix(x, (-1,))
        with pytest.raises(ScoringError):
            lag_matrix(x, (10,))


class TestLaggedScorer:
    def test_detects_delayed_effect(self, rng):
        """Y reacts to X three steps later: plain L2 misses most of it,
        the lag-augmented scorer recovers it."""
        n = 400
        x = rng.standard_normal(n)
        y = np.empty(n)
        y[3:] = x[:-3]
        y[:3] = 0.0
        y = (y + 0.2 * rng.standard_normal(n))[:, None]
        plain = L2Scorer().score(x[:, None], y)
        lagged = LaggedScorer(lags=(0, 1, 2, 3)).score(x[:, None], y)
        assert lagged > 0.7
        assert lagged > plain + 0.3

    def test_instantaneous_effect_unharmed(self, rng):
        n = 300
        x = rng.standard_normal(n)
        y = (x + 0.2 * rng.standard_normal(n))[:, None]
        plain = L2Scorer().score(x[:, None], y)
        lagged = LaggedScorer(lags=(0, 1, 2)).score(x[:, None], y)
        assert lagged > plain - 0.1

    def test_name_encodes_max_lag(self):
        assert LaggedScorer(lags=(0, 1, 4)).name == "L2-lag4"

    def test_empty_lags_rejected(self):
        with pytest.raises(ScoringError):
            LaggedScorer(lags=())

    def test_noise_still_scores_zero(self, rng):
        x = rng.standard_normal((300, 2))
        y = rng.standard_normal((300, 1))
        assert LaggedScorer(lags=(0, 1, 2)).score(x, y) < 0.1


class TestLaggedBatchPath:
    def test_batch_matches_the_oracle(self, rng):
        scorer = LaggedScorer(lags=(0, 1, 2))
        reference = reference_for(scorer)
        y = rng.standard_normal((60, 1))
        z = rng.standard_normal((60, 2))
        xs = [rng.standard_normal((60, 2)) for _ in range(4)]
        for condition in (None, z):
            batch = scorer.score_batch(xs, y, condition)
            sequential = np.array([reference.score(x, y, condition)
                                   for x in xs])
            assert_matches_oracle(batch, sequential)

    def test_registered(self):
        from repro.scoring import get_scorer, list_scorers
        assert "l2-lag2" in list_scorers()
        scorer = get_scorer("L2-lag2")
        assert isinstance(scorer, LaggedScorer)
        assert scorer.lags == (0, 1, 2)

    def test_score_only_inner_goes_through_its_default_batch(self, rng):
        from repro.scoring import Scorer

        class LastColumnVariance(Scorer):
            name = "last-col"

            def score(self, x, y, z=None):
                return float(np.var(x[:, -1]))

        scorer = LaggedScorer(lags=(0, 2), inner=LastColumnVariance())
        y = rng.standard_normal((30, 1))
        xs = [rng.standard_normal((30, 2)) for _ in range(3)]
        expected = [float(np.var(lag_matrix(x, (0, 2))[:, -1])) for x in xs]
        assert scorer.score_batch(xs, y).tolist() == expected
        assert [scorer.score(x, y) for x in xs] == expected

    def test_lasso_inner_matches_its_oracle(self, rng):
        from repro.scoring.joint import L1Scorer
        scorer = LaggedScorer(lags=(0, 1), inner=L1Scorer())
        reference = reference_for(scorer)
        y = rng.standard_normal((50, 1))
        xs = [rng.standard_normal((50, 2)) for _ in range(3)]
        batch = scorer.score_batch(xs, y)
        sequential = np.array([reference.score(x, y) for x in xs])
        assert_matches_oracle(batch, sequential)

    def test_empty_batch(self):
        assert LaggedScorer().score_batch([], np.zeros((5, 1))).size == 0


class TestBestLag:
    def test_recovers_true_delay(self, rng):
        n = 500
        x = rng.standard_normal(n)
        y = np.empty(n)
        y[4:] = x[:-4]
        y[:4] = 0.0
        y = (y + 0.1 * rng.standard_normal(n))[:, None]
        lag, score = best_lag(x, y, max_lag=8)
        assert lag == 4
        assert score > 0.8

    def test_zero_lag_for_contemporaneous(self, rng):
        n = 400
        x = rng.standard_normal(n)
        y = (2 * x + 0.1 * rng.standard_normal(n))[:, None]
        lag, _ = best_lag(x, y, max_lag=5)
        assert lag == 0
