"""Linear-model substrate (replaces scikit-learn in the paper's stack).

ExplainIt! scores hypotheses with penalised linear regressions selected by
k-fold cross-validation (section 3.5).  This package provides them on
numpy as one kernel, stacked over every hypothesis of a shape group:

- :mod:`repro.linmodel.batched` — the cross-validation kernel.  Its fold
  statistics (each fold's training Gram and cross-products, and the
  held-out block's) are built in one pass over the rows, then solved
  for the penalty: ridge by one stacked ``eigh`` (the paper's L2), Lasso
  by stacked covariance-update coordinate descent (L1).  Beside it, the
  standardisation and the residualisation on Z that every scorer uses.
- :mod:`repro.linmodel.crossval` — contiguous (non-shuffled) k-fold splits
  for autocorrelated time series, per the paper's §3.5 requirement that
  validation ranges do not overlap training ranges.
- :mod:`repro.linmodel.preprocessing` — missing-value interpolation.

The row-space estimators this kernel replaced (``Ridge``, ``Lasso``,
``LinearRegression``, ``StandardScaler``, the §3.5 conditional
procedure) live on in ``tests/linmodel/estimators.py`` as the oracles
the kernel is tested against.
"""

from repro.linmodel.batched import (
    DEFAULT_ALPHAS,
    CvResult,
    batched_cross_val_r2,
)
from repro.linmodel.crossval import ShuffledKFold, TimeSeriesKFold
from repro.linmodel.preprocessing import interpolate_missing

__all__ = [
    "DEFAULT_ALPHAS",
    "CvResult",
    "batched_cross_val_r2",
    "ShuffledKFold",
    "TimeSeriesKFold",
    "interpolate_missing",
]
