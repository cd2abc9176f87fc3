"""The explain core: Algorithm 1's rank step, carried across store versions.

:class:`ExplainCore` is the one place a ranking is computed, for the
interactive session (:class:`~repro.core.engine.ExplainItSession`) and
the serving tier (:class:`~repro.serve.server.QueryServer`) alike.  It
holds the latest :class:`_Generation` it built — a family set plus each
request shape's last answer, the scorers' prepared (Y, Z) targets and
the scorers themselves — and builds a newer version's generation as a
refresh of it:

- only the families whose member series were written are re-aligned
  (the store's views log what was written), every other family is
  reused as the same object
  (:func:`~repro.core.families.families_from_store` with ``previous=``);
- each request shape's answer is carried with only the positions whose
  X family was replaced marked for rescoring, and an answer whose Y or Z
  was replaced is dropped;
- a prepared target is carried while a carried answer uses it, and a
  scorer always, so a write that leaves the target's families alone
  prepares nothing and no scorer is instantiated twice.

So an explain after a write re-aligns, re-scores and re-ranks only what
the write touched, as long as the write leaves the time grid in place
(one that extends the horizon rebuilds everything).  Stale positions
are scored in-process by :func:`~repro.engine_exec.batch.execute_batches`,
the one scoring path, and the carried ranking is patched
(:meth:`~repro.scoring.table.Ranking.rescored`) into the table a cold
run builds, bit for bit.  A request naming a live ``Scorer`` or
``FeatureFamily`` object rather than a registry or family name has no
shape to carry and is a plain
:func:`~repro.core.ranking.rank_families` call.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.families import (
    FamilyError,
    FamilySet,
    FeatureFamily,
    families_from_store,
)
from repro.core.hypothesis import Hypothesis, generate_hypotheses
from repro.core.ranking import (
    DEFAULT_TOP_K,
    ScoreTable,
    build_score_table,
    rank_families,
)
from repro.engine_exec.batch import execute_batches
from repro.scoring.base import Scorer, get_scorer
from repro.scoring.table import Ranking, chebyshev_p_values, rank_scores
from repro.tsdb.storage import StoreView

#: The (score, seconds, p-value) of a hypothesis not scored yet.
_UNKNOWN = (np.nan, np.nan, np.nan)

#: How many request shapes' answers a generation keeps, least recently
#: asked first out: :meth:`_Generation.inherit` walks every one at each
#: new version.  The end-to-end benchmark asks at most 2 shapes per
#: generation; a shape asked again after its eviction takes the values
#: the kept answers know and scores the rest.
ANSWERS = 32


class _Answer(NamedTuple):
    """One request shape's answer at one generation.

    ``hypotheses`` are what :func:`generate_hypotheses` gives for the
    shape over the generation's families, ``positions`` maps each X
    family name to its position, and ``scores``, ``seconds`` and
    ``p_values`` are by position.  ``stale`` positions had their X
    family replaced (or are new): their values are unknown and must be
    scored.  ``ranking`` ranks the values as they were before the stale
    positions went stale, so rescoring them patches it
    (:meth:`Ranking.rescored`); it is ``None`` when positions moved or
    nothing was ranked yet.
    """

    y: FeatureFamily
    z: FeatureFamily | None
    hypotheses: list[Hypothesis]
    positions: dict[str, int]
    scores: np.ndarray
    seconds: np.ndarray
    p_values: np.ndarray
    stale: frozenset[int]
    ranking: Ranking | None


def _new_answer(families: FamilySet, shape: tuple,
                hypotheses: list[Hypothesis],
                known: dict[FeatureFamily, tuple]) -> _Answer:
    """An answer for ``hypotheses`` of ``shape``: the values ``known``
    holds for an X are taken, the rest are stale."""
    target, condition = shape[:2]
    rows = [known.get(h.x, _UNKNOWN) for h in hypotheses]
    scores, seconds, p_values = np.array(
        rows, dtype=np.float64).reshape(-1, 3).T.copy()
    return _Answer(
        families[target],
        None if condition is None else families[condition],
        hypotheses, {h.name: i for i, h in enumerate(hypotheses)},
        scores, seconds, p_values,
        frozenset(i for i, row in enumerate(rows) if row is _UNKNOWN), None)


def _known(answer: _Answer) -> dict[FeatureFamily, tuple]:
    """``answer``'s known values by X family."""
    return {h.x: (score, elapsed, p) for i, (h, score, elapsed, p) in
            enumerate(zip(answer.hypotheses, answer.scores.tolist(),
                          answer.seconds.tolist(), answer.p_values.tolist()))
            if i not in answer.stale}


class _Generation:
    """The explain work of one version that a newer version may reuse.

    Its family set (built over ``key``: the view's version and the
    horizon), the last answer of each request shape (``answers``,
    keyed ``(target, condition, search, exclude, scorer registry
    name)``), the scorers' prepared (Y, Z) targets (keyed by
    ``(scorer registry name, Y, Z)``) and the scorers themselves (keyed
    by registry name) — every answer is over this
    generation's families, and :class:`FeatureFamily` hashes by
    identity, so a target key matches only the very same families.
    An answer is dropped when its Y or Z family is replaced
    (:meth:`inherit`) or when :data:`ANSWERS` shapes were asked since,
    so every shape asked recently keeps costing what a write touched;
    a prepared target goes with the last answer that uses it.
    It holds no view, so the core's reference to the latest
    built generation keeps no other per-version state alive.
    """

    def __init__(self, families: FamilySet, key: tuple) -> None:
        self.families = families
        self.key = key
        #: least recently asked first
        self.answers: OrderedDict[tuple, _Answer] = OrderedDict()
        self.targets: dict[tuple, Any] = {}
        self.scorers: dict[str, Scorer] = {}
        # guards ``answers``, ``targets`` and ``scorers``
        self.lock = threading.Lock()

    def inherit(self, older: "_Generation") -> None:
        """Carry ``older``'s answers, prepared targets and scorers over
        to this generation's families, built with
        ``previous=older.families``.

        After a refresh (``families.origin.realigned`` names the
        re-aligned families) an answer keeps its hypothesis list, with
        each replaced X swapped for its new family and marked stale: it
        costs what the refresh re-aligned.  After a full build every
        answer is regenerated, keeping the values of the hypotheses that
        survived as objects.  Either way an answer over a replaced Y or
        Z is dropped, and only the targets a carried answer uses are
        carried.
        """
        families = self.families
        realigned = families.origin.realigned
        if realigned is not None:
            replaced = {older.families[name] for name in realigned}
        else:
            replaced = set(older.families).difference(families)
        with older.lock:
            answers = list(older.answers.items())
            targets = dict(older.targets)
            scorers = dict(older.scorers)
        carried = []
        for shape, answer in answers:
            if answer.y in replaced or answer.z in replaced:
                continue
            if realigned is not None:
                answer = _refreshed(answer, families, realigned)
            else:
                answer = _rebuilt(answer, families, shape)
            if answer is not None:
                carried.append((shape, answer))
        used = {_target_key(*item) for item in carried}
        with self.lock:
            self.answers.update(carried)
            self.targets.update((key, targets[key]) for key in used
                                if key in targets)
            self.scorers.update(scorers)

    def answer(self, shape: tuple) -> _Answer:
        """``shape``'s answer: the carried one, or one built now whose
        values are taken from the other answers of the same scorer, Y
        and Z where they know the X."""
        with self.lock:
            answer = self.answers.get(shape)
            if answer is not None:
                self.answers.move_to_end(shape)
                return answer
            others = list(self.answers.items())
        target, condition, search, exclude, scorer = shape
        hypotheses = generate_hypotheses(
            self.families, target, condition=condition, search=search,
            exclude=exclude)
        y = self.families[target]
        z = None if condition is None else self.families[condition]
        known: dict[FeatureFamily, tuple] = {}
        for key, other in others:
            if key[-1] == scorer and other.y is y and other.z is z:
                known.update(_known(other))
        return _new_answer(self.families, shape, hypotheses, known)

    def keep(self, shape: tuple, answer: _Answer) -> None:
        """Keep ``shape``'s answer, evicting the least recently asked
        beyond :data:`ANSWERS` and each target no kept answer uses."""
        with self.lock:
            self.answers[shape] = answer
            self.answers.move_to_end(shape)
            while len(self.answers) > ANSWERS:
                key = _target_key(*self.answers.popitem(last=False))
                if all(_target_key(*item) != key
                       for item in self.answers.items()):
                    self.targets.pop(key, None)

    def prepared(self, scorer: str) -> "_PreparedTargets":
        """``scorer``'s prepared targets, as the executor's memo."""
        return _PreparedTargets(self, scorer)

    def scorer(self, name: str) -> Scorer:
        """The scorer registered as ``name``, instantiated on first use
        and carried to newer generations with the targets it prepared."""
        with self.lock:
            scorer = self.scorers.get(name)
            if scorer is None:
                scorer = self.scorers[name] = get_scorer(name)
            return scorer


def _target_key(shape: tuple, answer: _Answer) -> tuple:
    """The key of the prepared target ``answer`` is scored against."""
    return shape[-1], answer.y, answer.z


def _refreshed(answer: _Answer, families: FamilySet,
               realigned: tuple[str, ...]) -> _Answer:
    """``answer`` over ``families``, whose ``realigned`` families are
    new objects: same positions, each replaced X swapped and stale."""
    positions = answer.positions
    stale = [positions[name] for name in realigned if name in positions]
    if not stale:
        return answer
    hypotheses = list(answer.hypotheses)
    for i in stale:
        hypotheses[i] = Hypothesis(families[hypotheses[i].name], answer.y,
                                   answer.z)
    return answer._replace(hypotheses=hypotheses,
                           stale=answer.stale.union(stale))


def _rebuilt(answer: _Answer, families: FamilySet,
             shape: tuple) -> _Answer | None:
    """``answer`` regenerated over a fully built ``families`` (the
    candidate list may have changed), keeping the values of every
    hypothesis whose X survived; ``None`` when the shape no longer
    resolves."""
    target, condition, search, exclude = shape[:4]
    try:
        hypotheses = generate_hypotheses(
            families, target, condition=condition, search=search,
            exclude=exclude, memo={(h.x, h.y, h.z): h
                                   for h in answer.hypotheses})
    except FamilyError:
        return None
    return _new_answer(families, shape, hypotheses, _known(answer))


class _PreparedTargets:
    """One scorer's view of a generation's prepared targets, keyed
    ``(Y, Z)`` as :func:`~repro.engine_exec.batch.execute_batches`
    looks them up."""

    def __init__(self, generation: _Generation, scorer: str) -> None:
        self._generation = generation
        self._scorer = scorer

    def get(self, key: tuple) -> Any:
        with self._generation.lock:
            return self._generation.targets.get((self._scorer, *key))

    def __setitem__(self, key: tuple, target: Any) -> None:
        with self._generation.lock:
            self._generation.targets[(self._scorer, *key)] = target


def shareable(scorer: Any, condition: Any) -> bool:
    """Whether a request names its scorer and condition (registry and
    family names), so its answer can be carried and shared; a live
    ``Scorer`` or ``FeatureFamily`` object cannot."""
    return isinstance(scorer, str) \
        and (condition is None or isinstance(condition, str))


class ExplainCore:
    """The latest generation of explain work over one store, and the
    rank step that reuses it.

    ``group_by`` is the family grouping (as in
    :func:`~repro.core.families.families_from_store`).  Safe to share
    between threads: a generation guards its own tables, and each call
    of :meth:`generation` builds at most one family set.
    """

    def __init__(self, group_by: str = "name") -> None:
        self.group_by = group_by
        self._latest: _Generation | None = None      # last one built
        self._lock = threading.Lock()

    def generation(self, view: StoreView, start: int | None = None,
                   end: int | None = None) -> _Generation:
        """The generation over ``view`` within ``[start, end)``.

        The latest one when it was built at ``view``'s version over the
        same range; otherwise its family set is built as a refresh of
        the latest generation's (at any version):
        ``families_from_store(..., previous=latest.families)`` reuses,
        as the same objects, the families none of whose members was
        written since; the new generation inherits ``latest``'s answers
        (:meth:`_Generation.inherit`), then becomes the latest itself —
        so at most one generation outlives its callers.  What was
        written comes from the store's write log when it reaches back
        to ``latest``'s version and from comparing columns by identity
        otherwise (``latest`` newer than ``view``, or too many versions
        ago), so reuse is exact whichever version ``latest`` came from.
        """
        key = (view.version, start, end)
        with self._lock:
            latest = self._latest
        if latest is not None and latest.key == key:
            return latest
        generation = _Generation(families_from_store(
            view, group_by=self.group_by, start=start, end=end,
            previous=latest.families if latest else None), key)
        if latest is not None:
            generation.inherit(latest)
        with self._lock:
            self._latest = generation
        return generation

    def clear(self) -> None:
        """Drop the latest generation (and everything it carries)."""
        with self._lock:
            self._latest = None

    def rank(self, generation: _Generation, target: str, scorer: Any,
             condition: Any = None, search: Iterable[str] | None = None,
             exclude: Iterable[str] = (),
             top_k: int = DEFAULT_TOP_K) -> ScoreTable:
        """Rank at ``generation``, scoring only what is not known.

        A :func:`shareable` request shape starts from its answer in the
        generation — carried from an older version or built from the
        other answers' values — and scores only its stale positions: by
        the ``Scorer`` contract a score depends on the (X, Y, Z)
        matrices alone, so the table, whose ranking the rescored rows
        patch (:meth:`Ranking.rescored`), is bitwise the one a cold run
        builds.  The stale positions are scored against the (Y, Z)
        target the generation holds prepared, prepared (and kept) only
        when Y or Z was replaced, by the scorer the generation holds.
        A live scorer or family object scores every hypothesis.
        """
        search = None if search is None else tuple(search)
        exclude = tuple(exclude)
        if not shareable(scorer, condition):
            return rank_families(generate_hypotheses(
                generation.families, target, condition=condition,
                search=search, exclude=exclude), scorer=scorer, top_k=top_k)
        shape = (target, condition, search, exclude, scorer.lower())
        answer = generation.answer(shape)
        started = time.perf_counter()
        scorer = generation.scorer(shape[-1])
        if not answer.hypotheses:
            return build_score_table([], [], [], scorer.name, top_k,
                                     time.perf_counter() - started)
        if answer.stale or answer.ranking is None:
            todo = sorted(answer.stale)
            scores, seconds, p_values = (
                answer.scores.copy(), answer.seconds.copy(),
                answer.p_values.copy())
            if todo:
                fresh = [answer.hypotheses[i] for i in todo]
                scores[todo], seconds[todo], p_values[todo] = _score(
                    fresh, scorer, generation.prepared(shape[-1]))
            if answer.ranking is None:
                ranking = rank_scores(answer.hypotheses, scores, seconds,
                                      p_values)
            else:
                ranking = answer.ranking.rescored(todo, scores, seconds,
                                                  p_values)
            answer = answer._replace(scores=scores, seconds=seconds,
                                     p_values=p_values, stale=frozenset(),
                                     ranking=ranking)
            generation.keep(shape, answer)
        return answer.ranking.table(scorer.name, top_k,
                                    time.perf_counter() - started)


def _score(hypotheses: Sequence[Hypothesis], scorer: Scorer,
           targets: _PreparedTargets
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(scores, seconds, p-values)`` of ``hypotheses``."""
    scores, seconds, _ = execute_batches(hypotheses, scorer, targets=targets)
    return scores, seconds, chebyshev_p_values(hypotheses, scores)
