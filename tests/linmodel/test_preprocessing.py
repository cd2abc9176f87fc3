"""Unit tests for the StandardScaler oracle and for interpolation."""

import numpy as np
import pytest

from repro.linmodel import interpolate_missing
from repro.linmodel.batched import standardize
from tests.linmodel.estimators import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        x = rng.standard_normal((100, 3)) * 5.0 + 10.0
        out = StandardScaler().fit_transform(x)
        assert out.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-10)
        assert out.std(axis=0) == pytest.approx(np.ones(3), abs=1e-10)

    def test_constant_column_safe(self):
        x = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        out = StandardScaler().fit_transform(x)
        assert np.all(out[:, 0] == 0.0)
        assert np.isfinite(out).all()

    def test_inverse_round_trip(self, rng):
        x = rng.standard_normal((50, 2)) * 3.0 + 7.0
        scaler = StandardScaler().fit(x)
        assert scaler.inverse_transform(scaler.transform(x)) == \
            pytest.approx(x)

    def test_1d_support(self, rng):
        x = rng.standard_normal(30) * 2.0
        out = StandardScaler().fit_transform(x)
        assert out.ndim == 1

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros(3))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray,
                                        np.asfortranarray])
    def test_the_scorers_standardize_is_the_scaler_bitwise(self, rng,
                                                          layout):
        """Y and Z are standardised by ``standardize`` in ``src``; its
        bits are the scaler's, so ridge scores did not move."""
        x = rng.standard_normal((97, 4)) * 3.0 + 1e4
        x[:, 2] = 5.0
        x = layout(x)
        assert (standardize(x).tobytes()
                == StandardScaler().fit_transform(x).tobytes())


class TestInterpolateMissing:
    def test_no_nans_unchanged(self):
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(interpolate_missing(x), x)

    def test_interior_nan_takes_nearest(self):
        col = np.array([1.0, np.nan, np.nan, np.nan, 9.0])
        out = interpolate_missing(col)
        # positions 1,2 closer/tied to index 0; position 3 closer to 4
        assert out.tolist() == [1.0, 1.0, 1.0, 9.0, 9.0]

    def test_edge_nans_extend(self):
        col = np.array([np.nan, 5.0, np.nan])
        assert interpolate_missing(col).tolist() == [5.0, 5.0, 5.0]

    def test_all_nan_column_becomes_zero(self):
        x = np.column_stack([np.full(4, np.nan), np.arange(4.0)])
        out = interpolate_missing(x)
        assert np.all(out[:, 0] == 0.0)
        assert np.array_equal(out[:, 1], np.arange(4.0))

    def test_input_not_mutated(self):
        x = np.array([[np.nan], [1.0]])
        interpolate_missing(x)
        assert np.isnan(x[0, 0])

    def test_tie_goes_to_earlier_neighbour(self):
        col = np.array([2.0, np.nan, 8.0])
        assert interpolate_missing(col)[1] == 2.0
