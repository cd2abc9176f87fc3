"""Causal hypotheses: triples of feature families (§3.3).

"A causal hypothesis is a triple of feature families (X, Y, Z), organised
as (a) an explainable feature X, (b) the target variable Y, and (c)
another list of metrics to condition on Z.  Clearly, there should be no
overlap in metrics between X, Y and Z."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.families import FamilyError, FamilySet, FeatureFamily


@dataclass
class Hypothesis:
    """One scored unit: does X explain Y, controlling for Z?"""

    x: FeatureFamily
    y: FeatureFamily
    z: FeatureFamily | None = None

    def __post_init__(self) -> None:
        overlap = set(self.x.members) & set(self.y.members)
        if self.z is not None:
            overlap |= set(self.x.members) & set(self.z.members)
            overlap |= set(self.y.members) & set(self.z.members)
        if overlap:
            raise FamilyError(
                f"hypothesis families overlap on metrics: {sorted(overlap)[:5]}"
            )
        lengths = {self.x.n_samples, self.y.n_samples}
        if self.z is not None:
            lengths.add(self.z.n_samples)
        if len(lengths) != 1:
            raise FamilyError(
                f"families have mismatched sample counts: {lengths}"
            )

    @property
    def name(self) -> str:
        return self.x.name

    @property
    def z_matrix(self) -> np.ndarray | None:
        return self.z.matrix if self.z is not None else None

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The (X, Y, Z) matrices handed to a scorer."""
        return self.x.matrix, self.y.matrix, self.z_matrix

    def __repr__(self) -> str:
        z_part = f", Z={self.z.name!r}" if self.z is not None else ""
        return (f"Hypothesis(X={self.x.name!r} ({self.x.n_features}f), "
                f"Y={self.y.name!r}{z_part})")


def generate_hypotheses(families: FamilySet, target: str,
                        condition: str | FeatureFamily | None = None,
                        search: Iterable[str] | None = None,
                        exclude: Iterable[str] = (),
                        memo: dict[tuple, Hypothesis] | None = None
                        ) -> list[Hypothesis]:
    """Enumerate hypotheses for every candidate family (Algorithm 1, line 4).

    ``search`` restricts the space ("All families or user defined
    subset"); the target and conditioning families are always excluded,
    as are any ``exclude`` names and families whose metrics overlap the
    target's.

    ``memo`` maps ``(X, Y, Z)`` family objects to the hypothesis built
    over them; a triple found there is taken as is — whether it is
    admissible depends on those three families alone — and every
    hypothesis built is added, so a caller that keeps one memo across
    calls pays the overlap checks once per triple.
    """
    y_family = families[target]
    z_family: FeatureFamily | None
    if condition is None:
        z_family = None
    elif isinstance(condition, FeatureFamily):
        z_family = condition
    else:
        z_family = families[condition]

    skip = {target} | set(exclude)
    if z_family is not None:
        skip.add(z_family.name)
    candidates = iter(families) if search is None else (
        families[name] for name in search if name not in skip)
    memo = {} if memo is None else memo

    blocked_metrics = set(y_family.members)
    if z_family is not None:
        blocked_metrics |= set(z_family.members)

    hypotheses: list[Hypothesis] = []
    for x_family in candidates:
        if x_family.name in skip:
            continue
        key = (x_family, y_family, z_family)
        hypothesis = memo.get(key)
        if hypothesis is None:
            if not blocked_metrics.isdisjoint(x_family.members):
                continue
            hypothesis = memo[key] = Hypothesis(x=x_family, y=y_family,
                                                z=z_family)
        hypotheses.append(hypothesis)
    return hypotheses
