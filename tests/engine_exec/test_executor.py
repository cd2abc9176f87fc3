"""Unit tests for the hypothesis executor."""

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.engine_exec import HypothesisExecutor, SerializationAccounting
from repro.scoring import get_scorer
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


def _accounting(hypotheses, scorer, **executor_args):
    accounting = SerializationAccounting()
    HypothesisExecutor(**executor_args).score(
        hypotheses, get_scorer(scorer), accounting=accounting)
    return accounting


class TestHypothesisExecutor:
    def test_parallel_matches_serial_ranking(self, hypotheses):
        serial_rank = [r.family
                       for r in reference_rank(hypotheses, "L2").results]
        for backend in (None, "process"):
            table = rank_families(hypotheses, scorer="L2", backend=backend,
                                  n_workers=4)
            assert [r.family for r in table.results] == serial_rank
        assert serial_rank[0] == "fam_0"

    def test_timings_per_hypothesis(self, hypotheses):
        _, seconds, attributed = HypothesisExecutor(
            n_workers=2, backend="process").score(hypotheses,
                                                  get_scorer("L2"))
        assert not attributed.any()
        assert len(seconds) == len(hypotheses)
        assert seconds.mean() > 0.0
        assert seconds.max() >= seconds.mean()

    def test_wall_time_recorded(self, hypotheses):
        table = rank_families(hypotheses, scorer="CorrMax")
        assert table.total_seconds > 0.0

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            HypothesisExecutor(n_workers=0)

    def test_serialization_accounting(self, hypotheses):
        accounting = _accounting(hypotheses, "CorrMax", n_workers=1)
        assert accounting.calls == len(hypotheses)
        assert accounting.bytes_moved > 0
        assert 0.0 <= accounting.serialization_share <= 1.0

    def test_univariate_serialization_share_exceeds_joint(self, hypotheses):
        """§6.2: serialisation is a larger share for cheap scorers."""
        cheap = _accounting(hypotheses, "CorrMax", n_workers=1)
        joint = _accounting(hypotheses, "L2", n_workers=1)
        assert cheap.serialization_share > joint.serialization_share

    def test_empty_hypothesis_list(self):
        scores, seconds, attributed = HypothesisExecutor().score(
            [], get_scorer("CorrMax"))
        assert len(scores) == len(seconds) == len(attributed) == 0
