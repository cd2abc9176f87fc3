"""The stacked Lasso kernel against its row-space oracle.

``L1Scorer`` cross-validates every (penalty, fold, design, Y column)
slice of a shape group at once by coordinate descent on the fold
statistics; ``ReferenceL1`` fits one row-space ``Lasso`` per fold and
penalty, one hypothesis at a time.  They run the same coordinate order,
sweep limit and stopping rule on algebraically equal inputs, so scores
must meet :func:`~tests.scoring.reference.assert_matches_oracle`.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.linmodel.batched import (
    LASSO_MAX_ITER,
    cv_target,
    fold_statistics,
    lasso_coefficients,
)
from repro.linmodel.crossval import TimeSeriesKFold
from repro.scoring import L1Scorer
from tests.linmodel.estimators import Lasso, StandardScaler
from tests.scoring.reference import assert_matches_oracle, reference_for

CASES = st.fixed_dictionaries({
    "n_samples": st.integers(10, 60),
    "n_features": st.integers(1, 6),
    "n_targets": st.integers(1, 3),
    "z_width": st.integers(0, 2),
    "n_stack": st.integers(1, 3),
    "columns": st.sampled_from(["random", "constant", "collinear"]),
    "signal": st.sampled_from([0.0, 0.5, 3.0]),
    "seed": st.integers(0, 2**16),
})


def build(case):
    rng = np.random.default_rng(case["seed"])
    n, f = case["n_samples"], case["n_features"]
    xs = [rng.standard_normal((n, f)) for _ in range(case["n_stack"])]
    for x in xs:
        if case["columns"] == "constant":
            x[:, 0] = 2.5
        elif case["columns"] == "collinear" and f > 1:
            x[:, -1] = 2.0 * x[:, 0] + 1.0
    y = (case["signal"] * xs[0][:, :1]
         + rng.standard_normal((n, case["n_targets"])))
    z = (rng.standard_normal((n, case["z_width"])) + 0.5 * y[:, :1]
         if case["z_width"] else None)
    return xs, y, z


@settings(max_examples=80, deadline=None)
@given(case=CASES)
@example(case=dict(n_samples=60, n_features=3, n_targets=2, z_width=1,
                   n_stack=2, columns="collinear", signal=3.0, seed=4))
def test_l1_matches_its_oracle(case):
    xs, y, z = build(case)
    scorer = L1Scorer()
    reference = reference_for(scorer)
    assert_matches_oracle(scorer.score_batch(xs, y, z),
                          np.array([reference.score(x, y, z) for x in xs]))


def _near_duplicate_pair(seed=0, n_samples=60):
    """Two almost equal columns: coordinate descent trades weight
    between them a little per sweep, so some folds never converge."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n_samples)
    x = np.column_stack([a, a + 1e-3 * rng.standard_normal(n_samples),
                         rng.standard_normal(n_samples)])
    y = (x[:, 0] + 0.5 * x[:, 2]
         + 0.3 * rng.standard_normal(n_samples))[:, None]
    return x, y


def test_slices_that_reach_the_sweep_limit():
    x, y = _near_duplicate_pair()
    scorer = L1Scorer()
    xs, ys = (StandardScaler().fit_transform(m) for m in (x, y))
    folds = list(TimeSeriesKFold(scorer.n_splits).split(len(y)))
    fits = [[Lasso(alpha=alpha).fit(xs[train], ys[train])
             for alpha in scorer.alphas] for train, _ in folds]
    assert any(fit.n_iter_ == LASSO_MAX_ITER for row in fits for fit in row)
    assert any(fit.n_iter_ < LASSO_MAX_ITER for row in fits for fit in row)
    # Fold by fold and penalty by penalty, the stacked coefficients are
    # the row-space ones, capped slices included.
    coef = lasso_coefficients(
        fold_statistics(xs[None], cv_target(ys, scorer.n_splits)),
        np.asarray(scorer.alphas))
    for k, row in enumerate(fits):
        for a, fit in enumerate(row):
            np.testing.assert_allclose(coef[k, a, 0], fit.coef_,
                                       rtol=0, atol=1e-9)
    assert_matches_oracle(scorer.score(x, y),
                          reference_for(scorer).score(x, y))


def test_a_column_constant_on_the_training_rows_stays_at_zero():
    """A step that is flat on the first four blocks: the oracle skips
    it in the fold that trains on them, and so must the kernel."""
    rng = np.random.default_rng(3)
    n = 50
    step = np.where(np.arange(n) >= 40, 1.0, 0.0)
    x = np.column_stack([step, rng.standard_normal(n)])
    y = (x[:, 1] + 0.2 * rng.standard_normal(n))[:, None]
    ys = StandardScaler().fit_transform(y)
    xs = StandardScaler().fit_transform(x)
    coef = lasso_coefficients(fold_statistics(xs[None], cv_target(ys)),
                              np.array([1e-3]))
    assert coef[4, 0, 0, 0] == 0.0 and np.all(coef[:4, 0, 0, 0] != 0.0)
    assert_matches_oracle(L1Scorer().score(x, y),
                          reference_for("L1").score(x, y))

