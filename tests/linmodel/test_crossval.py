"""Unit tests for time-series-aware cross-validation splitters."""

import numpy as np
import pytest

from repro.linmodel.crossval import ShuffledKFold, TimeSeriesKFold


class TestTimeSeriesKFold:
    def test_folds_cover_everything_once(self):
        splitter = TimeSeriesKFold(n_splits=5)
        seen = []
        for train, valid in splitter.split(103):
            seen.extend(valid.tolist())
            assert set(train) | set(valid) == set(range(103))
            assert not set(train) & set(valid)
        assert sorted(seen) == list(range(103))

    def test_validation_blocks_are_contiguous(self):
        """The paper's §3.5 requirement: no time-range overlap."""
        for _, valid in TimeSeriesKFold(4).split(50):
            assert np.array_equal(valid, np.arange(valid[0], valid[-1] + 1))

    def test_uneven_fold_sizes(self):
        sizes = [len(v) for _, v in TimeSeriesKFold(3).split(10)]
        assert sizes == [4, 3, 3]

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(TimeSeriesKFold(5).split(3))

    def test_min_splits(self):
        with pytest.raises(ValueError):
            TimeSeriesKFold(n_splits=1)


class TestShuffledKFold:
    def test_partition_property(self):
        seen = []
        for train, valid in ShuffledKFold(4, seed=1).split(40):
            seen.extend(valid.tolist())
            assert not set(train) & set(valid)
        assert sorted(seen) == list(range(40))

    def test_deterministic_under_seed(self):
        a = [v.tolist() for _, v in ShuffledKFold(3, seed=7).split(30)]
        b = [v.tolist() for _, v in ShuffledKFold(3, seed=7).split(30)]
        assert a == b

    def test_actually_shuffles(self):
        contiguous = all(
            np.array_equal(v, np.arange(v.min(), v.max() + 1))
            for _, v in ShuffledKFold(4, seed=0).split(40)
        )
        assert not contiguous
