"""Unit tests for grid-search CV and out-of-fold scoring."""

import numpy as np
import pytest

from tests.linmodel.estimators import cross_val_r2


class TestCrossValR2:
    def test_strong_signal_scores_high(self, rng):
        x = rng.standard_normal((200, 3))
        y = x @ np.array([1.0, 2.0, -1.0]) + 0.1 * rng.standard_normal(200)
        result = cross_val_r2(x, y)
        assert result.best_score > 0.9

    def test_pure_noise_scores_near_zero(self, rng):
        x = rng.standard_normal((200, 30))
        y = rng.standard_normal(200)
        result = cross_val_r2(x, y)
        assert result.best_score < 0.1

    def test_noise_prefers_heavy_penalty(self, rng):
        """Figure 13's behaviour: CV selects large λ under the NULL."""
        x = rng.standard_normal((150, 50))
        y = rng.standard_normal(150)
        result = cross_val_r2(x, y, alphas=(0.1, 10.0, 1000.0))
        assert result.best_alpha >= 10.0

    def test_scores_clipped_at_zero(self, rng):
        x = rng.standard_normal((40, 20))
        y = rng.standard_normal(40)
        result = cross_val_r2(x, y)
        assert all(v >= 0.0 for v in result.scores_by_alpha.values())

    def test_result_metadata(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        result = cross_val_r2(x, y, alphas=(1.0, 2.0))
        assert result.n_samples == 50
        assert result.n_features == 4
        assert set(result.scores_by_alpha) == {1.0, 2.0}
        assert "best_alpha" in result.as_dict()

    def test_constant_target_scores_zero(self, rng):
        x = rng.standard_normal((60, 2))
        y = np.full(60, 7.0)
        assert cross_val_r2(x, y).best_score == 0.0

    def test_multi_output_target(self, rng):
        x = rng.standard_normal((100, 3))
        y = np.column_stack([x @ np.ones(3), rng.standard_normal(100)])
        result = cross_val_r2(x, y)
        # One explained output + one noise output -> intermediate score.
        assert 0.2 < result.best_score < 0.9


class TestBatchedCrossVal:
    @pytest.mark.parametrize("n_features", [1, 3])
    def test_stacked_slices_equal_the_2d_call_bitwise(self, n_features):
        """Regression: fancy-indexing the fold rows out of the stack left
        non-contiguous slices, and for one-column designs their fold
        means rounded differently from the 2-D call's — so a score
        depended on what else was in the batch."""
        from repro.linmodel.batched import as_stack, batched_cross_val_r2

        rng = np.random.default_rng(5)
        y = rng.standard_normal((72, 1))
        xs = [0.3 * y + 3.0 + rng.standard_normal((72, n_features))
              for _ in range(40)]
        stacked = batched_cross_val_r2(as_stack(xs), y)
        for x, got in zip(xs, stacked):
            want = cross_val_r2(x, y)
            assert got.scores_by_alpha == want.scores_by_alpha
            assert got.best_alpha == want.best_alpha
            assert got == batched_cross_val_r2(as_stack([x]), y)[0]


class TestGramFormMatchesTheSvdOracle:
    """The Gram-form CV against the per-fold SVD oracle, on the inputs
    where forming Grams is numerically delicate."""

    @staticmethod
    def _problem(n_samples=120, n_features=3, seed=1):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_samples, n_features))
        y = x @ rng.standard_normal(n_features) + rng.standard_normal(
            n_samples)
        return x, y

    @staticmethod
    def _check(x, y, **kwargs):
        from tests.scoring.reference import (
            assert_matches_oracle,
            reference_cross_val_r2,
        )
        assert_matches_oracle(cross_val_r2(x, y, **kwargs),
                              reference_cross_val_r2(x, y, **kwargs))

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_column_offsets(self, offset):
        x, y = self._problem()
        self._check(x + offset * np.array([1.0, -2.0, 3.0]), y + offset)

    def test_duplicated_column(self):
        x, y = self._problem()
        self._check(x[:, [0, 0, 1]], y)

    def test_constant_column(self):
        x, y = self._problem()
        x[:, 1] = 5.0
        self._check(x, y)

    def test_rows_not_divisible_by_folds(self):
        x, y = self._problem(n_samples=103)
        self._check(x, y)
        self._check(x, y, n_splits=7)

    def test_more_columns_than_training_rows(self):
        x, y = self._problem(n_samples=40, n_features=51)
        self._check(x, y)

    def test_multi_output_target(self):
        x, y = self._problem()
        self._check(x, np.column_stack([y, x[:, 0] - y]))

    def test_shuffled_folds(self):
        from repro.linmodel.crossval import ShuffledKFold
        x, y = self._problem()
        self._check(x, y, splitter=ShuffledKFold(n_splits=5, seed=3))

    @pytest.mark.parametrize("alphas", [(0.0, 1.0), (-1.0,), (),
                                        (np.nan,), (1.0, np.nan),
                                        (np.inf,)])
    def test_non_positive_penalty_rejected(self, alphas):
        """Every penalty grid is checked once, where it is given: the
        L1 scorer at construction like L2, and a NaN is not skipped."""
        from repro.linmodel.batched import batched_cross_val_r2
        from repro.scoring import L1Scorer, L2Scorer
        x, y = self._problem()
        with pytest.raises(ValueError, match="> 0"):
            batched_cross_val_r2(x[None], y, alphas=alphas)
        with pytest.raises(ValueError, match="> 0"):
            L2Scorer(alphas=alphas)
        with pytest.raises(ValueError, match="> 0"):
            L1Scorer(alphas=alphas)

    def test_non_partition_splitter_rejected(self):
        class Overlapping:
            def split(self, n_samples):
                rows = np.arange(n_samples)
                yield rows[10:], rows[:20]
                yield rows[:10], rows[10:]

        x, y = self._problem()
        with pytest.raises(ValueError, match="partition"):
            cross_val_r2(x, y, splitter=Overlapping())
