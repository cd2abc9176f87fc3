"""Unit tests for the one scoring path, ``execute_batches``."""

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.engine_exec import SerializationAccounting, execute_batches
from repro.scoring import Scorer, get_scorer
from tests.scoring.reference import reference_rank


@pytest.fixture
def hypotheses(rng):
    n = 150
    target = rng.standard_normal(n)
    fams = [FeatureFamily("target", target[:, None], ["t:0"],
                          np.arange(n))]
    for i in range(8):
        coupling = 1.0 if i == 0 else 0.0
        data = (coupling * target[:, None]
                + rng.standard_normal((n, 3)))
        fams.append(FeatureFamily(f"fam_{i}", data,
                                  [f"fam_{i}:{j}" for j in range(3)],
                                  np.arange(n)))
    families = FamilySet(fams)
    return generate_hypotheses(families, "target")


def _accounting(hypotheses, scorer):
    accounting = SerializationAccounting()
    execute_batches(hypotheses, get_scorer(scorer), accounting=accounting)
    return accounting


class TestExecuteBatches:
    def test_batched_matches_serial_ranking(self, hypotheses):
        serial_rank = [r.family
                       for r in reference_rank(hypotheses, "L2").results]
        table = rank_families(hypotheses, scorer="L2")
        assert [r.family for r in table.results] == serial_rank
        assert serial_rank[0] == "fam_0"

    def test_timings_per_hypothesis(self, hypotheses):
        _, seconds, attributed = execute_batches(hypotheses,
                                                 get_scorer("L2"))
        # The eight same-shaped X stack into one call, whose time is
        # split evenly: every row is an attributed share.
        assert attributed.all()
        assert len(seconds) == len(hypotheses)
        assert seconds.mean() > 0.0
        assert seconds.max() >= seconds.mean()

    def test_wall_time_recorded(self, hypotheses):
        table = rank_families(hypotheses, scorer="CorrMax")
        assert table.total_seconds > 0.0

    def test_pool_arguments_are_inert(self, hypotheses):
        """``rank_families`` keeps accepting the in-process values of the
        pool-era arguments and rejects any other backend or transfer."""
        plain = rank_families(hypotheses, scorer="L2")
        legacy = rank_families(hypotheses, scorer="L2", backend=None,
                               n_workers=2, transfer="shm")
        assert legacy.all_scores == plain.all_scores
        with pytest.raises(ValueError):
            rank_families(hypotheses, scorer="L2", backend="process")
        with pytest.raises(ValueError):
            rank_families(hypotheses, scorer="L2", transfer="pickle")

    def test_serialization_accounting(self, hypotheses):
        accounting = _accounting(hypotheses, "CorrMax")
        assert accounting.calls == len(hypotheses)
        assert accounting.bytes_moved > 0
        assert 0.0 <= accounting.serialization_share <= 1.0

    def test_univariate_serialization_share_exceeds_joint(self, hypotheses):
        """§6.2: serialisation is a larger share for cheap scorers."""
        cheap = _accounting(hypotheses, "CorrMax")
        joint = _accounting(hypotheses, "L2")
        assert cheap.serialization_share > joint.serialization_share

    def test_empty_hypothesis_list(self):
        scores, seconds, attributed = execute_batches(
            [], get_scorer("CorrMax"))
        assert len(scores) == len(seconds) == len(attributed) == 0


class _Failing(Scorer):
    """Prepares Y (or refuses to) and fails on every X."""

    name = "failing"

    def __init__(self, fail_prepare: bool = False) -> None:
        self.fail_prepare = fail_prepare

    def prepare(self, y, z=None):
        if self.fail_prepare:
            raise ArithmeticError("prepare bug")
        return super().prepare(y, z)

    def score(self, x, y, z=None):
        raise ArithmeticError("scorer bug")


class TestScorerErrors:
    def test_scorer_error_reaches_the_caller(self, hypotheses):
        targets = {}
        with pytest.raises(ArithmeticError, match="scorer bug"):
            execute_batches(hypotheses, _Failing(), targets=targets)
        # Preparing succeeded, so the target stays usable by the next run.
        assert len(targets) == 1

    def test_failed_prepare_memoises_nothing(self, hypotheses):
        targets = {}
        with pytest.raises(ArithmeticError, match="prepare bug"):
            execute_batches(hypotheses, _Failing(fail_prepare=True),
                            targets=targets)
        assert targets == {}


class TestTargetMemo:
    def test_each_group_is_prepared_once_across_runs(self, hypotheses,
                                                     monkeypatch):
        scorer = get_scorer("L2")
        prepared = []
        real = scorer.prepare
        monkeypatch.setattr(scorer, "prepare",
                            lambda y, z=None: prepared.append(1) or real(y, z))
        targets = {}
        first, _, _ = execute_batches(hypotheses, scorer, targets=targets)
        second, _, _ = execute_batches(hypotheses, scorer, targets=targets)
        assert len(prepared) == 1
        assert np.array_equal(first, second)
        assert np.array_equal(first, execute_batches(hypotheses,
                                                     get_scorer("L2"))[0])


def test_accounting_moves_every_hypothesis_matrix_once(rng):
    """One round trip per hypothesis, carrying its X, Y and Z bytes."""
    n = 40
    grid = np.arange(n)
    families = FamilySet([
        FeatureFamily("target", rng.standard_normal((n, 1)), ["t:0"], grid),
        FeatureFamily("cond", rng.standard_normal((n, 2)), ["z:0", "z:1"],
                      grid),
        FeatureFamily("a", rng.standard_normal((n, 3)),
                      ["a:0", "a:1", "a:2"], grid),
        FeatureFamily("b", rng.standard_normal((n, 1)), ["b:0"], grid),
    ])
    hypotheses = generate_hypotheses(families, "target", condition="cond")
    accounting = SerializationAccounting()
    scores, _, _ = execute_batches(hypotheses, get_scorer("CorrMax"),
                                   accounting=accounting)
    assert accounting.calls == len(hypotheses) == 2
    assert accounting.bytes_moved == sum(
        (h.x.matrix.size + n * 1 + n * 2) * 8 for h in hypotheses)
    assert np.array_equal(
        scores, execute_batches(hypotheses, get_scorer("CorrMax"))[0])
