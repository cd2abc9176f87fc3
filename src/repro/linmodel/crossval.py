"""Cross-validation splitters that respect time ordering.

Section 3.5: "Since we are dealing with time series data that has rich
auto-correlation, we ensure that the validation set's time range does not
overlap the training set's time range."  The splitter therefore cuts the
sample axis into k *contiguous* blocks; each fold validates on one block
and trains on the rest.  (Shuffled folds leak autocorrelated neighbours
into the training set — the ablation benchmark quantifies the optimism
this causes.)
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class TimeSeriesKFold:
    """k contiguous folds over ``n`` time-ordered samples."""

    def __init__(self, n_splits: int = 5) -> None:
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, validation_indices)`` per fold."""
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            stop = start + size
            validation = indices[start:stop]
            train = np.concatenate([indices[:start], indices[stop:]])
            yield train, validation
            start = stop


class ShuffledKFold:
    """Shuffled k-fold — included only for the CV-leakage ablation."""

    def __init__(self, n_splits: int = 5, seed: int = 0) -> None:
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.seed = seed

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, validation_indices)`` per fold."""
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        rng = np.random.default_rng(self.seed)
        permutation = rng.permutation(n_samples)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            stop = start + size
            validation = permutation[start:stop]
            train = np.concatenate([permutation[:start], permutation[stop:]])
            yield np.sort(train), np.sort(validation)
            start = stop
