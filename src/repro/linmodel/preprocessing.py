"""Preprocessing: missing-value interpolation.

ExplainIt! interpolates missing observations to the closest non-null
neighbour before scoring (Appendix C).
"""

from __future__ import annotations

import numpy as np


def interpolate_missing(matrix: np.ndarray) -> np.ndarray:
    """Fill NaNs column-wise from the nearest non-NaN observation.

    Ties between an earlier and later neighbour go to the earlier one,
    matching the tsdb alignment policy.  All-NaN columns become zeros
    (a flat, uninformative feature rather than a crash).
    """
    matrix = np.array(matrix, dtype=np.float64, copy=True)
    was_1d = matrix.ndim == 1
    if was_1d:
        matrix = matrix[:, None]
    n_rows = matrix.shape[0]
    row_idx = np.arange(n_rows)
    for col in range(matrix.shape[1]):
        column = matrix[:, col]
        good = ~np.isnan(column)
        if good.all():
            continue
        if not good.any():
            matrix[:, col] = 0.0
            continue
        good_idx = row_idx[good]
        right = np.searchsorted(good_idx, row_idx, side="left")
        right = np.clip(right, 0, good_idx.size - 1)
        left = np.clip(right - 1, 0, good_idx.size - 1)
        dist_right = np.abs(good_idx[right] - row_idx)
        dist_left = np.abs(row_idx - good_idx[left])
        chosen = np.where(dist_left <= dist_right, good_idx[left],
                          good_idx[right])
        matrix[:, col] = column[chosen]
    return matrix[:, 0] if was_1d else matrix
