"""The maintained Score Table: ``Ranking.rescored`` equals a cold ranking.

A served explain re-ranks after a write by patching the last ranking:
the order is sorted anew, the corrections are recomputed, and every row
that kept its rank, values and BH flag is reused.
Whatever the rescored rows do — move many ranks, become NaN, tie other
rows exactly, flip other rows' BH flags — the patched table must be the
one :func:`build_score_table` builds cold from the same arrays, field
for field.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.families import FeatureFamily
from repro.core.hypothesis import Hypothesis
from repro.scoring.table import RankedFamily, build_score_table, rank_scores

T = 8


def pack(value: float) -> bytes:
    return struct.pack("<d", value)


def hypotheses(names):
    """One hypothesis per name; X widths vary so ``n_features`` does."""
    y = FeatureFamily("target", np.arange(T, dtype=float), ["y"])
    return [Hypothesis(FeatureFamily(name, np.ones((T, 1 + k % 3)),
                                     [f"{name}:{j}" for j in range(1 + k % 3)]),
                       y) for k, name in enumerate(names)]


def fields(table):
    """Every field of a Score Table, floats as their IEEE bytes."""
    rows = [(r.rank, r.family, pack(r.score), r.n_features, pack(r.p_value),
             pack(r.p_bonferroni), r.significant_bh, pack(r.seconds))
            for r in table.results]
    scores = [(name, pack(score)) for name, score in table.all_scores.items()]
    return (table.scorer_name, table.target, table.condition,
            table.n_hypotheses, table.top_k, rows, scores)


def check(ranking, hyps, scores, seconds, p_values):
    cold = build_score_table(hyps, scores, seconds, "L2", 7, 0.0,
                             p_values=p_values)
    assert fields(ranking.table("L2", 7)) == fields(cold)


#: Scores with exact ties, both zeros, infinities and NaN.
SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan,
                                    np.inf, -np.inf]),
                   st.floats(-1.0, 1.0, allow_nan=False))
#: p-values around the BH thresholds of a few dozen rows, so a rescored
#: row's p-value moves the cutoff and flips other rows' flags.
P_VALUES = st.one_of(st.sampled_from([0.0, 0.001, 0.002, 0.01, 0.05, 1.0,
                                      np.nan]),
                     st.floats(0.0, 0.06))


@st.composite
def rescorings(draw):
    n = draw(st.integers(1, 40))
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=4),
                          min_size=n, max_size=n, unique=True))
    scores = draw(st.lists(SCORES, min_size=n, max_size=n))
    p_values = draw(st.lists(P_VALUES, min_size=n, max_size=n))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        positions = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=n, unique=True))
        steps.append([(i, draw(SCORES), draw(P_VALUES), draw(
            st.floats(0.0, 1.0))) for i in positions])
    return names, scores, p_values, steps


@settings(max_examples=300, deadline=None)
@given(rescorings())
def test_rescored_equals_a_cold_ranking(case):
    names, scores, p_values, steps = case
    hyps = hypotheses(names)
    scores = np.array(scores)
    p_values = np.array(p_values)
    seconds = np.linspace(0.0, 1.0, len(names))
    ranking = rank_scores(hyps, scores, seconds, p_values)
    check(ranking, hyps, scores, seconds, p_values)
    for step in steps:
        scores, seconds, p_values = (scores.copy(), seconds.copy(),
                                     p_values.copy())
        for i, score, p, elapsed in step:
            scores[i], p_values[i], seconds[i] = score, p, elapsed
        previous = ranking
        ranking = previous.rescored([i for i, *_ in step], scores, seconds,
                                    p_values)
        check(ranking, hyps, scores, seconds, p_values)
        # A row is rebuilt only where its rank, values or flag changed.
        rescored = {i for i, *_ in step}
        for old, new in zip(previous.results, ranking.results):
            if old.family == new.family and old == new \
                    and names.index(old.family) not in rescored:
                assert old is new


def scored(n):
    """Distinct descending scores and p-values for ``n`` rows, named in
    rank order."""
    names = [f"f{k:02d}" for k in range(n)]
    scores = np.linspace(0.9, 0.1, n)
    p_values = np.linspace(0.001, 0.04, n)
    return names, hypotheses(names), scores, p_values


@pytest.mark.parametrize("moves", [1, 3, 17])
def test_rows_moving_many_ranks(moves):
    """A block of low rows jumps above rank 6; the rows it passes shift
    down and are rebuilt, the rows above and below it are reused."""
    names, hyps, scores, p_values = scored(30)
    seconds = np.zeros(30)
    ranking = rank_scores(hyps, scores, seconds, p_values)
    scores = scores.copy()
    positions = list(range(29 - moves, 29))
    scores[positions] = scores[5] + 0.001 * (1 + np.arange(moves))
    patched = ranking.rescored(positions, scores, seconds, p_values)
    check(patched, hyps, scores, seconds, p_values)
    assert [r.family for r in patched.results[5:5 + moves]] == \
        [names[i] for i in reversed(positions)]
    assert patched.results[:5] == ranking.results[:5]
    assert all(new is old for new, old in zip(patched.results[:5],
                                              ranking.results[:5]))
    assert patched.results[29] is ranking.results[29]
    assert not set(map(id, patched.results[5:29])) & \
        set(map(id, ranking.results))


def test_bh_flags_flip_on_other_rows():
    """Lowering one p-value moves the BH cutoff: rows whose score did
    not change flip to significant and are rebuilt, the rest reused."""
    names, hyps, scores, _ = scored(10)
    seconds = np.zeros(10)
    # Just above the thresholds q*k/m = 0.005 k from the third on.
    p_values = np.array([0.001, 0.004, 0.016, 0.021, 0.026,
                         0.031, 0.036, 0.041, 0.9, 0.9])
    ranking = rank_scores(hyps, scores, seconds, p_values)
    flags = [r.significant_bh for r in ranking.results]
    assert flags == [True] * 2 + [False] * 8
    p_values = p_values.copy()
    p_values[8] = 0.0001
    patched = ranking.rescored([8], scores, seconds, p_values)
    check(patched, hyps, scores, seconds, p_values)
    assert [r.significant_bh for r in patched.results] == [True] * 9 + \
        [False]
    assert patched.results[0] is ranking.results[0]
    assert patched.results[9] is ranking.results[9]
    assert patched.results[2] is not ranking.results[2]


def test_nan_and_ties_rank_by_name():
    names, hyps, scores, p_values = scored(6)
    seconds = np.zeros(6)
    ranking = rank_scores(hyps, scores, seconds, p_values)
    scores = scores.copy()
    scores[[0, 4]] = np.nan           # both NaN: last, name-ordered
    scores[5] = scores[1]             # an exact tie, broken by name
    patched = ranking.rescored([0, 4, 5], scores, seconds, p_values)
    check(patched, hyps, scores, seconds, p_values)
    assert [r.family for r in patched.results] == \
        ["f01", "f05", "f02", "f03", "f00", "f04"]


def test_rows_are_immutable():
    row = RankedFamily(1, "f", 0.5, 2, 0.01)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.rank = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.significant_bh = True
