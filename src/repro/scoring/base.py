"""Scorer protocol and registry.

Scorers are stateless objects scoring the dependence ``Y ~ X | Z``.  The
registry maps the names used throughout the paper's evaluation
(``CorrMean``, ``CorrMax``, ``L2``, ``L2-P50``, ``L2-P500``) to factory
functions, so harness code can sweep scorers by name.

A scorer is written once, as either method of :class:`Scorer`:

- ``score_batch(xs, y, z)`` scores a whole list of candidate ``X``
  matrices against one shared ``(Y, Z)`` in stacked ``numpy``
  operations.  Every built-in scorer is written this way, because
  Algorithm 1 scores hundreds of hypotheses against the same target per
  interactive step; ``score(x, y, z)`` is then the batch of one.
- ``score(x, y, z)`` scores one hypothesis.  Scorers with no work to
  share across hypotheses (custom scorers,
  :class:`~repro.core.autoselect.AutoScorer`) are written this way;
  ``score_batch`` is then the per-X loop.

``score_batch`` must not depend on batch composition: element ``i`` of
its result is exactly ``score(xs[i], y, z)`` whatever else is in the
batch, which is what lets the execution layer regroup hypotheses freely
without changing any Score Table, bit for bit.

The (Y, Z) side of a batch can be prepared once and scored against many
times: ``score_prepared(xs, prepare(y, z))`` equals ``score_batch(xs,
y, z)`` bit for bit, and a prepared target is immutable, so the
execution layer prepares each (Y, Z) once per ranking and the serving
tier carries it across store versions while its families survive.  The
base class prepares nothing (:class:`Target` just holds Y and Z for
``score_batch``); the ridge scorers validate, standardise and
residualise Y and collect its cross-validation statistics there.

The plain 2-D sequential form of every built-in scorer, kept in
``tests/scoring/reference.py``, is the oracle the stacked kernels are
compared against: bit for bit, except ridge-CV scores (within 1e-9).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

import numpy as np


class ScoringError(Exception):
    """Raised when a hypothesis cannot be scored."""


class Target(NamedTuple):
    """A (Y, Z) pair as given: what :meth:`Scorer.prepare` returns for a
    scorer with nothing to prepare."""

    y: np.ndarray
    z: np.ndarray | None


class Scorer:
    """Scores the dependence Y ~ X | Z into [0, 1].

    Subclasses override exactly one of :meth:`score` and
    :meth:`score_batch`; the other is derived from it.
    """

    #: Human-readable name used in reports and benchmarks.
    name: str = "scorer"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if (cls.score is Scorer.score
                and cls.score_batch is Scorer.score_batch):
            raise TypeError(
                f"{cls.__name__} must override score or score_batch")

    def score(self, x: np.ndarray, y: np.ndarray,
              z: np.ndarray | None = None) -> float:
        """Return the causal-relevance score for the triple (X, Y, Z)."""
        return float(self.score_batch([x], y, z)[0])

    def score_batch(self, xs: Sequence[np.ndarray], y: np.ndarray,
                    z: np.ndarray | None = None) -> np.ndarray:
        """Scores for every X in ``xs``, aligned with the input order."""
        return np.asarray([float(self.score(x, y, z)) for x in xs],
                          dtype=np.float64)

    def prepare(self, y: np.ndarray, z: np.ndarray | None = None) -> Any:
        """The (Y, Z) side of a batch, for :meth:`score_prepared`."""
        return Target(y, z)

    def score_prepared(self, xs: Sequence[np.ndarray],
                       target: Any) -> np.ndarray:
        """``score_batch`` against a target from this scorer's
        :meth:`prepare`; bitwise equal to it."""
        return self.score_batch(xs, *target)

    def __call__(self, x: np.ndarray, y: np.ndarray,
                 z: np.ndarray | None = None) -> float:
        return self.score(x, y, z)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def validate_batch(xs: Sequence[np.ndarray], y: np.ndarray,
                   z: np.ndarray | None
                   ) -> tuple[list[np.ndarray], np.ndarray,
                              np.ndarray | None]:
    """``validate_triple`` across a batch, validating shared (Y, Z) once.

    Raises the same :class:`ScoringError` a per-hypothesis
    ``validate_triple`` loop would, but scans Y and Z for NaN/inf once
    per batch instead of once per hypothesis.
    """
    if not len(xs):
        raise ScoringError("cannot validate an empty batch")
    y_v, z_v = validate_target(y, z)
    return validate_xs(xs, y_v.shape[0]), y_v, z_v


def validate_target(y: np.ndarray, z: np.ndarray | None
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """The (Y, Z) half of :func:`validate_triple`."""
    y = _as_matrix(y, "Y")
    if y.shape[1] == 0:
        raise ScoringError("X and Y must contain at least one metric each")
    if z is not None:
        z = _as_matrix(z, "Z")
        if z.shape[1] == 0:
            z = None
        elif z.shape[0] != y.shape[0]:
            raise ScoringError(
                f"Z has {z.shape[0]} rows but Y has {y.shape[0]}"
            )
    return y, z


def validate_xs(xs: Sequence[np.ndarray], n_rows: int) -> list[np.ndarray]:
    """The X half of :func:`validate_triple`, for every X of a batch
    against a target of ``n_rows`` rows."""
    validated = []
    for x in xs:
        x_v = _as_matrix(x, "X")
        if x_v.shape[0] != n_rows:
            raise ScoringError(
                f"X has {x_v.shape[0]} rows but Y has {n_rows}"
            )
        if x_v.shape[1] == 0:
            raise ScoringError("X and Y must contain at least one metric each")
        validated.append(x_v)
    return validated


def group_by_shape(matrices: Sequence[np.ndarray]) -> dict[tuple[int, ...],
                                                           list[int]]:
    """Indices of ``matrices`` grouped by shape, preserving input order.

    Batch implementations stack same-shaped X matrices into one (H, T, F)
    array; this helper produces the stacking plan.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, matrix in enumerate(matrices):
        groups.setdefault(np.asarray(matrix).shape, []).append(i)
    return groups


def validate_triple(x: np.ndarray, y: np.ndarray,
                    z: np.ndarray | None) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray | None]:
    """Coerce a hypothesis triple to aligned 2-D float matrices."""
    y, z = validate_target(y, z)
    return validate_xs([x], y.shape[0])[0], y, z


def _as_matrix(a: np.ndarray, label: str) -> np.ndarray:
    # One memory layout for every scorer: family matrices built from a
    # store are column-major, copies that crossed shared memory are
    # row-major, and BLAS/reduction order — the last bits of a score —
    # follows the layout.
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ScoringError(f"{label} must be 1-D or 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ScoringError(
            f"{label} contains NaN/inf; run interpolate_missing first"
        )
    return arr


_REGISTRY: dict[str, Callable[[], Scorer]] = {}


def register_scorer(name: str, factory: Callable[[], Scorer]) -> None:
    """Register a scorer factory under a (case-insensitive) name."""
    _REGISTRY[name.lower()] = factory


def get_scorer(name: str) -> Scorer:
    """Instantiate a scorer by its registry name (e.g. ``"L2-P50"``)."""
    factory = _REGISTRY.get(name.lower())
    if factory is None:
        raise ScoringError(
            f"unknown scorer {name!r}; available: {list_scorers()}"
        )
    return factory()


def list_scorers() -> list[str]:
    """Registered scorer names, sorted."""
    return sorted(_REGISTRY)
