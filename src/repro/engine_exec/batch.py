"""Batch planner: group hypotheses, score each group in stacked calls.

Algorithm 1 scores *thousands* of hypotheses against the same target in
one interactive iteration, so almost all Y/Z-side work (validation,
standardisation, the residual projection on Z, cross-validation fold
statistics) is shared.  This module is how every in-process ranking is
scored:

1. :func:`plan_batches` groups hypotheses by their shared ``(Y, Z)``
   family objects (``generate_hypotheses`` builds Y and Z once and
   shares them across every X, so identity grouping recovers exactly
   the per-iteration structure).
2. :func:`execute_batches` prepares each group's (Y, Z) once with the
   scorer's ``prepare`` — or takes it from a caller's ``targets`` memo
   — and hands the group's X matrices to ``score_prepared`` — one
   stacked numpy call per group instead of one Python call per
   hypothesis.  Scorers written as a per-hypothesis ``score`` get
   :class:`~repro.scoring.base.Scorer`'s pass-through ``prepare`` and
   looping ``score_batch``, so there is a single execution path.

Per-hypothesis wall times are not individually observable inside a
stacked call, but the stacked call itself decomposes: scorers stack
same-shaped X matrices, so :func:`execute_batches` issues one
``score_prepared`` call *per shape group* (a large group in several
size-bounded calls) and measures each call's wall time individually;
the first call of a group also pays the group's ``prepare``.
Only within one call is the elapsed time attributed as an equal share,
and the returned ``attributed`` flags mark exactly those shared rows so
aggregate consumers (Figure 10's max-per-family, the bench harness) can
distinguish measured from attributed times.  Splitting cannot change
any score: ``score_batch`` is independent of batch composition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Protocol, Sequence

import numpy as np

from repro.engine_exec.accounting import SerializationAccounting
from repro.scoring.base import Scorer, group_by_shape

if TYPE_CHECKING:
    from repro.core.families import FeatureFamily
    from repro.core.hypothesis import Hypothesis

#: Largest X block handed to one ``score_prepared`` call, in matrix elements
#: (1 MiB of float64).  Scorers allocate several temporaries the size of
#: the stack they score, so scoring every same-shaped hypothesis of a
#: search space in one call makes peak memory grow with the number of
#: hypotheses, while the gain from stacking saturates within a few dozen
#: matrices per call.
STACK_ELEMENTS = 1 << 17

#: Stands in for ``z=None`` in grouping keys.  A dedicated module-level
#: object (always alive, so its id() can never be recycled) rather than
#: a literal like ``0`` that could in principle collide with another
#: key component.
_NO_CONDITION = object()


class TargetMemo(Protocol):
    """Where :func:`execute_batches` finds and keeps one scorer's
    prepared targets, keyed ``(Y family, Z family or None)``."""

    def get(self, key: tuple) -> Any: ...

    def __setitem__(self, key: tuple, target: Any) -> None: ...


@dataclass
class HypothesisBatch:
    """One group of hypotheses sharing the same (Y, Z) matrices."""

    y: FeatureFamily
    z: FeatureFamily | None
    indices: list[int]            # positions in the original sequence
    hypotheses: list[Hypothesis]

    @property
    def size(self) -> int:
        return len(self.hypotheses)


def plan_batches(hypotheses: Sequence[Hypothesis]) -> list[HypothesisBatch]:
    """Group hypotheses by shared (Y, Z) identity, preserving order.

    Grouping is by object identity: hypotheses generated for one target
    share the very same Y (and Z) family objects, so one ``explain()``
    iteration collapses into a single batch.  Hypotheses with equal but
    distinct Y/Z objects simply land in separate (still correct) groups.

    ``id()`` values are only unique among *live* objects, so every keyed
    object must stay alive until planning completes: if families are
    created lazily and an earlier key object were garbage-collected
    mid-stream, CPython could hand its address to a fresh family and
    silently merge hypotheses from different (Y, Z) groups.  Binding
    ``y``/``z`` to locals before taking their ids (so ``id()`` is never
    taken of a dying temporary when ``.y``/``.z`` are computed
    properties) and storing exactly those objects in the batch — which
    ``groups`` holds for the whole loop, with the immortal
    ``_NO_CONDITION`` sentinel standing in for ``z=None`` — guarantees
    every keyed address stays pinned.
    """
    groups: dict[tuple[int, int], HypothesisBatch] = {}
    for i, hypothesis in enumerate(hypotheses):
        y = hypothesis.y
        z = hypothesis.z
        key = (id(y), id(z) if z is not None else id(_NO_CONDITION))
        batch = groups.get(key)
        if batch is None:
            groups[key] = batch = HypothesisBatch(
                y=y, z=z, indices=[], hypotheses=[])
        batch.indices.append(i)
        batch.hypotheses.append(hypothesis)
    return list(groups.values())


def _stacked_calls(xs: Sequence[np.ndarray]) -> Iterator[list[int]]:
    """Indices of ``xs`` per ``score_prepared`` call: same shape, bounded
    size."""
    for members in group_by_shape(xs).values():
        step = max(1, STACK_ELEMENTS // max(1, xs[members[0]].size))
        for k in range(0, len(members), step):
            yield members[k:k + step]


def execute_batches(hypotheses: Sequence[Hypothesis], scorer: Scorer,
                    accounting: SerializationAccounting | None = None,
                    targets: TargetMemo | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score all hypotheses group-wise.

    Returns ``(scores, seconds, attributed)`` arrays aligned with the
    input order; ``attributed[i]`` is True when ``seconds[i]`` is an
    equal share of a stacked call's elapsed time rather than an
    individually measured wall time.  Each group's (Y, Z) is prepared
    once; scorers are then invoked once per *shape group* (the unit
    scorers stack internally) — in slices of at most
    :data:`STACK_ELEMENTS` so temporaries stay bounded — and the elapsed
    time of each stacked call is measured individually (the first one
    includes the preparation); only the split within one call is
    attributed.  ``targets``, when given, is a memo of this scorer's
    prepared targets keyed ``(Y family, Z family or None)``: a group
    whose key it holds prepares nothing, and one it lacks is prepared
    and stored.  ``accounting`` performs one serialisation round-trip
    per hypothesis (restored arrays are bitwise equal, so scores are
    unaffected).
    """
    n = len(hypotheses)
    scores = np.empty(n)
    seconds = np.empty(n)
    attributed = np.zeros(n, dtype=bool)
    for batch in plan_batches(hypotheses):
        y = batch.y.matrix
        z = batch.z.matrix if batch.z is not None else None
        xs = [h.x.matrix for h in batch.hypotheses]
        if accounting is not None:
            xs = [accounting.round_trip(x, y, z)[0] for x in xs]
        key = (batch.y, batch.z)
        target = targets.get(key) if targets is not None else None
        for members in _stacked_calls(xs):
            group_xs = [xs[j] for j in members]
            start = time.perf_counter()
            if target is None:
                target = scorer.prepare(y, z)
                if targets is not None:
                    targets[key] = target
            values = scorer.score_prepared(group_xs, target)
            elapsed = time.perf_counter() - start
            if accounting is not None:
                accounting.record_score_time(elapsed)
            share = elapsed / len(members)
            for j, value in zip(members, values):
                i = batch.indices[j]
                scores[i] = float(value)
                seconds[i] = share
                attributed[i] = len(members) > 1
    return scores, seconds, attributed
