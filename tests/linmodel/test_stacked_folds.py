"""The stacked-fold CV kernel is bitwise the per-fold loop it replaced.

``signed_cv_r2`` solves all K folds in one stacked call;
``tests/linmodel/fold_loop.py`` keeps the loop over the folds as the
oracle.  Every slice of the stacked call sees the operands, shapes and
strides the loop gave it, so the two must agree bit for bit (any NaN
matching any NaN), for any stack size, fold count, remainder rows,
design width, target width, splitter and penalty grid.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.linmodel.batched import cv_target, signed_cv_r2
from repro.linmodel.crossval import ShuffledKFold, TimeSeriesKFold
from tests.linmodel.fold_loop import fold_loop_signed_cv_r2

ALPHA_GRIDS = [(0.1, 10.0, 1000.0), (1e-3,), (5.0, 0.5, 50.0, 1e-6),
               (1e4, 1e-2)]


def same_bits(expected: np.ndarray, actual: np.ndarray) -> bool:
    """Equal IEEE bytes, except that any NaN matches any NaN."""
    if expected.shape != actual.shape:
        return False
    nan = np.isnan(expected)
    return (np.array_equal(nan, np.isnan(actual))
            and expected[~nan].tobytes() == actual[~nan].tobytes())


def outcome(fn, *args):
    """The result, or the exception type where ``fn`` raises."""
    try:
        return fn(*args)
    except (ValueError, np.linalg.LinAlgError) as error:
        return type(error)


CASES = st.fixed_dictionaries({
    "n_stack": st.integers(1, 4),
    "n_splits": st.integers(2, 6),
    "blocks": st.integers(1, 6),           # rows per fold, before remainder
    "remainder": st.integers(0, 5),
    "n_features": st.integers(1, 9),
    "n_targets": st.integers(1, 4),
    "columns": st.sampled_from(["random", "constant", "duplicated"]),
    "scale": st.sampled_from([1e-6, 1.0, 1e3, 1e7]),
    "splitter": st.sampled_from(["default", "timeseries", "shuffled"]),
    "alphas": st.sampled_from(ALPHA_GRIDS),
    "seed": st.integers(0, 2**16),
})


def build(case):
    rng = np.random.default_rng(case["seed"])
    k = case["n_splits"]
    n_samples = k * case["blocks"] + case["remainder"] % k
    x = case["scale"] * rng.standard_normal(
        (case["n_stack"], n_samples, case["n_features"]))
    if case["columns"] == "constant":
        x[:, :, 0] = 3.25
    elif case["columns"] == "duplicated" and case["n_features"] > 1:
        x[:, :, -1] = x[:, :, 0]
    y = rng.standard_normal((n_samples, case["n_targets"]))
    splitter = {"default": None,
                "timeseries": TimeSeriesKFold(k),
                "shuffled": ShuffledKFold(k, seed=case["seed"])}[
                    case["splitter"]]
    return x, y, case["alphas"], k, splitter


@settings(max_examples=300, deadline=None)
@given(case=CASES)
@example(case=dict(n_stack=2, n_splits=5, blocks=1, remainder=0,
                   n_features=3, n_targets=2, columns="random", scale=1.0,
                   splitter="default", alphas=ALPHA_GRIDS[0], seed=1))
@example(case=dict(n_stack=3, n_splits=4, blocks=2, remainder=3,
                   n_features=9, n_targets=4, columns="duplicated",
                   scale=1.0, splitter="shuffled", alphas=ALPHA_GRIDS[2],
                   seed=2))
def test_stacked_folds_equal_the_fold_loop(case):
    x, y, alphas, k, splitter = build(case)
    expected = outcome(fold_loop_signed_cv_r2, x, y, alphas, k, splitter)
    actual = outcome(signed_cv_r2, x, y, alphas, k, splitter)
    if isinstance(expected, type):
        assert actual is expected
    else:
        assert same_bits(expected, actual)


@settings(max_examples=60, deadline=None)
@given(case=CASES)
def test_a_prepared_target_scores_like_its_y(case):
    x, y, alphas, k, splitter = build(case)
    target = cv_target(y, k, splitter)
    for stack in (x, x[::-1].copy()):
        assert same_bits(signed_cv_r2(stack, y, alphas, k, splitter),
                         signed_cv_r2(stack, target, alphas))


@pytest.mark.parametrize("n_samples", [1440, 1443, 240])
def test_wide_targets_and_long_series(n_samples):
    rng = np.random.default_rng(n_samples)
    x = rng.standard_normal((5, n_samples, 4))
    y = rng.standard_normal((n_samples, 50))
    assert same_bits(fold_loop_signed_cv_r2(x, y),
                     signed_cv_r2(x, cv_target(y)))


def test_the_default_partition_is_built_once_per_shape():
    y = np.arange(24.0)
    assert cv_target(y).partition is cv_target(y * 2.0).partition
    assert cv_target(y, 4).partition is not cv_target(y).partition


def test_rows_must_match_the_target():
    target = cv_target(np.arange(20.0))
    with pytest.raises(ValueError, match="21 rows"):
        signed_cv_r2(np.ones((1, 21, 2)), target)
