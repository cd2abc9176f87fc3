"""A prepared (Y, Z) target scores exactly like the (Y, Z) it came from.

``score_prepared(xs, prepare(y, z))`` must equal ``score_batch(xs, y,
z)`` bit for bit for every registered scorer, with and without Z, and a
target prepared once must keep giving the scores a fresh one gives — the
execution layer prepares once per ranking and the serving tier reuses a
target across store versions.
"""

import numpy as np
import pytest

from repro.scoring import L2Scorer, get_scorer, list_scorers
from repro.scoring.base import ScoringError, Target

T = 40


def _matrix(rng, width, coupled=None):
    data = rng.standard_normal((T, width))
    if coupled is not None:
        data[:, 0] += coupled
    return data


def _case(seed, y_width, z_width, scorer_name):
    rng = np.random.default_rng(seed)
    y = _matrix(rng, y_width)
    z = _matrix(rng, z_width) if z_width else None
    # Coordinate descent on 55 columns and 32 training rows runs most of
    # its slices to the sweep limit: seconds, and nothing a narrow X
    # does not cover.
    widths = (1, 3, 3, 1) if scorer_name == "l1" else (1, 3, 55, 3, 1, 55)
    xs = [_matrix(rng, w, coupled=y[:, 0] if i % 2 else None)
          for i, w in enumerate(widths)]
    return xs, y, z


#: (Y width, Z width): narrow, conditioned, and a Y / Z wider than the
#: 50 columns the projection scorers keep.
TARGETS = [(2, 0), (2, 3), (60, 0), (1, 60)]


@pytest.mark.parametrize("scorer_name", list_scorers())
@pytest.mark.parametrize("y_width, z_width", TARGETS)
def test_score_prepared_is_score_batch(scorer_name, y_width, z_width):
    scorer = get_scorer(scorer_name)
    xs, y, z = _case(7, y_width, z_width, scorer_name)
    expected = scorer.score_batch(xs, y, z)
    target = scorer.prepare(y, z)
    assert scorer.score_prepared(xs, target).tobytes() == expected.tobytes()
    # Reused for other batches, the same target gives a fresh one's
    # scores, and scoring leaves it as it was.
    for batch in (xs[::-1], xs[2:3], xs[:1] * 3):
        assert (scorer.score_prepared(batch, target).tobytes()
                == scorer.score_prepared(batch,
                                         scorer.prepare(y, z)).tobytes())
    assert scorer.score_prepared(xs, target).tobytes() == expected.tobytes()
    assert scorer.score_prepared([], target).shape == (0,)


def test_base_target_holds_y_and_z_as_given():
    scorer = get_scorer("CorrMax")
    y, z = np.ones((5, 1)), None
    assert scorer.prepare(y, z) == Target(y, z)


def test_projection_prepares_through_the_inner_l2_unless_y_is_wide():
    scorer = get_scorer("L2-P50")
    rng = np.random.default_rng(3)
    assert not isinstance(scorer.prepare(rng.standard_normal((T, 4))),
                          Target)
    assert isinstance(scorer.prepare(rng.standard_normal((T, 51))), Target)
    assert isinstance(scorer.prepare(rng.standard_normal((T, 2)),
                                     rng.standard_normal((T, 51))), Target)


def test_x_rows_must_match_the_prepared_target():
    scorer = L2Scorer()
    target = scorer.prepare(np.arange(20.0))
    with pytest.raises(ScoringError, match="X has 19 rows but Y has 20"):
        scorer.score_prepared([np.ones((19, 1))], target)


@pytest.mark.parametrize("scorer_name", ["L2", "L2-P50", "L2-PCA50",
                                         "L2-lag2"])
def test_fewer_rows_than_folds_is_a_scoring_error(scorer_name):
    """Cross-validation cannot split 3 rows into 5 folds; the scorer says
    so in its own terms instead of leaking the splitter's ValueError."""
    scorer = get_scorer(scorer_name)
    y = np.arange(3.0)
    with pytest.raises(ScoringError, match=r"3 rows.*5 cross-validation"):
        scorer.prepare(y)
    with pytest.raises(ScoringError, match=r"3 rows.*5 cross-validation"):
        scorer.score(np.ones(3), y)
