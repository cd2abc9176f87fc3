"""Random-projection scorers: the paper's L2-P50 and L2-P500 (§4.2).

When a matrix has more than ``d`` columns it is projected through a
Gaussian random matrix before the penalised regression.  The paper:
"we sample a new matrix every time we project and take the average of
three scores", and prefers random projection over PCA because PCA models
*normal* behaviour and discards exactly the anomalies the target needs
(§4.2) — the ablation benchmark reproduces that comparison.

``ProjectedL2Scorer.score_batch``: every hypothesis draws its own
sketches from a fresh seeded generator, but the projected designs all
share one shape ``(T, d)``, so the inner L2 cross-validation of the whole
batch — all hypotheses times all projection rounds — runs as one stacked
call.  When Y or Z itself needs projection, the key observation is that
the generator is seeded afresh *per hypothesis*: within one X-shape
group every hypothesis consumes the identical draw sequence, so the X
sketch and the projected Y/Z of each round are shared across the group
and the round still scores as one stacked call.

``PcaL2Scorer.score_batch``: per-X truncation is independent, so the
whole batch truncates through one stacked SVD
(:func:`~repro.linmodel.batched.batched_pca_truncate`) and the truncated
designs go to the inner L2 together.

Both prepare their (Y, Z) side through the inner L2's ``prepare`` —
the PCA scorer over the truncated Z, the projection scorer whenever
neither Y nor Z is wider than ``d`` (a wider one is re-projected in
every round after the X draws, so it cannot be prepared without X).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.linmodel.batched import (
    DEFAULT_ALPHAS,
    as_stack,
    batched_pca_truncate,
)
from repro.scoring.base import (
    Scorer,
    Target,
    group_by_shape,
    register_scorer,
    validate_target,
    validate_xs,
)
from repro.scoring.joint import L2Scorer


def random_projection(matrix: np.ndarray, d: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Project to at most ``d`` columns with a Gaussian sketch.

    Matrices already at or below ``d`` columns pass through unchanged —
    the paper's ``P(X) = X if nx <= d``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_cols = matrix.shape[1]
    if n_cols <= d:
        return matrix
    sketch = rng.standard_normal((n_cols, d)) / np.sqrt(d)
    return matrix @ sketch


class ProjectedL2Scorer(Scorer):
    """L2 scoring after random projection to ``d`` dimensions."""

    def __init__(self, d: int, n_projections: int = 3,
                 alphas: Sequence[float] = DEFAULT_ALPHAS,
                 n_splits: int = 5, seed: int = 0) -> None:
        if d <= 0:
            raise ValueError(f"projection dimension must be positive, got {d}")
        if n_projections <= 0:
            raise ValueError("n_projections must be positive")
        self.d = d
        self.n_projections = n_projections
        self.seed = seed
        self.name = f"L2-P{d}"
        self._inner = L2Scorer(alphas=alphas, n_splits=n_splits)

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Vectorized scoring: all projection rounds in one stacked call."""
        if not len(xs):
            return np.empty(0)
        return self.score_prepared(xs, self.prepare(y, z))

    def prepare(self, y: np.ndarray, z: np.ndarray | None = None) -> Any:
        """The inner L2's target when Y and Z pass through unprojected.

        A Y or Z wider than ``d`` is projected afresh in every round,
        after the X sketch's draws, so it cannot be prepared without X:
        it is kept as given (a base :class:`Target`).
        """
        if self._wide(y) or (z is not None and self._wide(z)):
            return Target(y, z)
        return self._inner.prepare(y, z)

    def _wide(self, matrix: np.ndarray) -> bool:
        matrix = np.asarray(matrix)
        return matrix.ndim == 2 and matrix.shape[1] > self.d

    def score_prepared(self, xs: Sequence[np.ndarray],
                       target: Any) -> np.ndarray:
        if isinstance(target, Target):
            return self._score_wide_target(xs, *target)
        out = np.empty(len(xs))
        plain: list[int] = []          # X narrow enough, no projection
        projected: list[int] = []      # only X needs the sketch
        validated = validate_xs(xs, target.rows)
        for i, x_v in enumerate(validated):
            if x_v.shape[1] > self.d:
                projected.append(i)
            else:
                plain.append(i)
        if plain:
            out[plain] = self._inner.score_validated(
                [validated[i] for i in plain], target)
        if projected:
            sketches: list[np.ndarray] = []
            for i in projected:
                rng = np.random.default_rng(self.seed)
                for _ in range(self.n_projections):
                    sketches.append(random_projection(validated[i], self.d,
                                                      rng))
                    # Y/Z are at most d wide here: their projections are
                    # identity passthroughs that consume no rng draws.
            scores = self._inner.score_validated(sketches, target)
            per_round = scores.reshape(len(projected), self.n_projections)
            for pos, i in enumerate(projected):
                out[i] = float(np.mean(per_round[pos]))
        return out

    def _score_wide_target(self, xs: Sequence[np.ndarray], y: np.ndarray,
                           z: np.ndarray | None) -> np.ndarray:
        # A Y or Z that itself needs projection is re-projected every
        # round, so rounds cannot stack *across* rounds — but they still
        # stack across hypotheses: each hypothesis's draws come from a
        # freshly seeded generator, so every member of one X-shape group
        # consumes the identical draw sequence.  The X sketch (when X is
        # wide) and each round's projected Y/Z are therefore shared by
        # the whole group, and each round scores as one stacked inner
        # call instead of one Python call per hypothesis.
        out = np.empty(len(xs))
        if not len(xs):
            return out
        y_v, z_v = validate_target(y, z)
        validated = validate_xs(xs, y_v.shape[0])
        for shape, indices in group_by_shape(validated).items():
            rng = np.random.default_rng(self.seed)
            x_wide = shape[1] > self.d
            rounds = np.empty((self.n_projections, len(indices)))
            for r in range(self.n_projections):
                # Draw order is part of the score's definition: the X
                # sketch (only when X is wide — narrow X passes through
                # and consumes no draws), then Y's sketch, then Z's.
                if x_wide:
                    sketch = (rng.standard_normal((shape[1], self.d))
                              / np.sqrt(self.d))
                    pxs = [validated[i] @ sketch for i in indices]
                else:
                    pxs = [validated[i] for i in indices]
                py = random_projection(y_v, self.d, rng)
                pz = (random_projection(z_v, self.d, rng)
                      if z_v is not None else None)
                # The sketched X are products of validated designs (or
                # the designs themselves): only the round's (Y, Z) is
                # new, so it is prepared and X is not validated again.
                rounds[r] = self._inner.score_validated(
                    pxs, self._inner.prepare(py, pz))
            for pos, i in enumerate(indices):
                out[i] = float(np.mean(rounds[:, pos]))
        return out


class PcaL2Scorer(Scorer):
    """PCA-truncated L2 scoring — the alternative §4.2 argues *against*.

    PCA keeps the top-variance directions of X, which model its normal
    behaviour; transient anomalies that explain the target often live in
    low-variance directions and get discarded.  Included to reproduce
    that ablation.
    """

    def __init__(self, d: int, alphas: Sequence[float] = DEFAULT_ALPHAS,
                 n_splits: int = 5) -> None:
        if d <= 0:
            raise ValueError(f"PCA dimension must be positive, got {d}")
        self.d = d
        self.name = f"L2-PCA{d}"
        self._inner = L2Scorer(alphas=alphas, n_splits=n_splits)

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Vectorized scoring: all truncations in one stacked SVD."""
        if not len(xs):
            return np.empty(0)
        return self.score_prepared(xs, self.prepare(y, z))

    def prepare(self, y: np.ndarray, z: np.ndarray | None = None) -> Any:
        """The inner L2's target over Y and the truncated Z."""
        y_v, z_v = validate_target(y, z)
        return self._inner.prepare(
            y_v, self._truncate(z_v) if z_v is not None else None)

    def score_prepared(self, xs: Sequence[np.ndarray],
                       target: Any) -> np.ndarray:
        """Each X's truncation depends only on that X, so same-shaped
        wide designs truncate through one
        :func:`~repro.linmodel.batched.batched_pca_truncate` call and
        every design then rides the inner L2 batch path against the
        shared target.
        """
        validated = validate_xs(xs, target.rows)
        truncated: list[np.ndarray] = list(validated)
        for shape, indices in group_by_shape(validated).items():
            if shape[1] <= self.d:
                continue        # narrow designs pass through untruncated
            stack = batched_pca_truncate(
                as_stack([validated[i] for i in indices]), self.d)
            for pos, i in enumerate(indices):
                truncated[i] = stack[pos]
        return self._inner.score_validated(truncated, target)

    def _truncate(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[1] <= self.d:
            return matrix
        centred = matrix - matrix.mean(axis=0)
        u, s, _ = np.linalg.svd(centred, full_matrices=False)
        return u[:, : self.d] * s[: self.d]


register_scorer("L2-P50", lambda: ProjectedL2Scorer(d=50))
register_scorer("L2-P500", lambda: ProjectedL2Scorer(d=500))
register_scorer("L2-PCA50", lambda: PcaL2Scorer(d=50))
