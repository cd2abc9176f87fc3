"""Unit tests for the r² oracle and for Wherry's adjustment.

``adjusted_r2`` lives beside its one user, the Figure 12 bench, and is
loaded from it by path.
"""

import numpy as np
import pytest

from tests.bench_modules import load_bench_module
from tests.linmodel.estimators import r2_score


def adjusted_r2(r2, n_samples, n_predictors):
    return load_bench_module("bench_figure12_13_null.py").adjusted_r2(
        r2, n_samples, n_predictors)


class TestR2:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, 2.0)
        assert r2_score(y, pred) == pytest.approx(0.0)

    def test_worse_than_mean_is_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.array([3.0, 2.0, 1.0])
        assert r2_score(y, pred) < 0.0

    def test_constant_target(self):
        y = np.full(5, 4.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1.0) == 0.0

    def test_training_baseline_mean(self):
        y = np.array([10.0, 12.0])
        pred = np.array([10.0, 12.0])
        # with a far-off baseline mean, TSS inflates but RSS is 0
        assert r2_score(y, pred, baseline_mean=np.array([0.0])) == 1.0

    def test_multi_output_variance_weighted(self):
        y = np.column_stack([np.arange(10.0), np.arange(10.0) * 10.0])
        pred = y.copy()
        pred[:, 0] = y[:, 0].mean()   # ruin the low-variance output only
        # Pooled RSS/TSS: the large-variance output dominates.
        assert r2_score(y, pred) > 0.97

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r2_score(np.zeros(3), np.zeros(4))


class TestExplainedVariance:
    def test_r2_penalises_offset(self):
        y = np.arange(10.0)
        assert r2_score(y, y + 100.0) < 0.0


class TestAdjustedR2:
    def test_wherry_formula(self):
        # r2=0.5, n=101, p=51 -> 1 - 0.5 * 100/50 = 0
        assert adjusted_r2(0.5, 101, 51) == pytest.approx(0.0)

    def test_no_predictors_noop_like(self):
        assert adjusted_r2(0.5, 100, 1) == pytest.approx(0.5, abs=0.01)

    def test_p_at_least_n_clamped(self):
        assert adjusted_r2(0.99, 10, 10) == 0.0
        assert adjusted_r2(0.99, 10, 50) == 0.0

    def test_adjustment_reduces_score(self):
        assert adjusted_r2(0.5, 50, 20) < 0.5
