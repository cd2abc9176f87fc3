"""Unit tests for the hypothesis executor."""

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.engine_exec import HypothesisExecutor
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


class TestHypothesisExecutor:
    def test_parallel_matches_serial_ranking(self, hypotheses):
        serial_rank = [r.family
                       for r in reference_rank(hypotheses, "L2").results]
        for backend in (None, "process"):
            report = HypothesisExecutor(n_workers=4, backend=backend).run(
                hypotheses, scorer="L2")
            assert report.backend == backend
            assert [r.family
                    for r in report.score_table.results] == serial_rank
        assert serial_rank[0] == "fam_0"

    def test_timings_per_hypothesis(self, hypotheses):
        report = HypothesisExecutor(n_workers=2, backend="process").run(
            hypotheses, scorer="L2")
        assert not report.has_attributed_timings()
        assert len(report.timings) == len(hypotheses)
        assert report.mean_seconds_per_family() > 0.0
        assert report.max_seconds_per_family() >= \
            report.mean_seconds_per_family()

    def test_wall_time_recorded(self, hypotheses):
        report = HypothesisExecutor(n_workers=2).run(hypotheses,
                                                     scorer="CorrMax")
        assert report.wall_seconds > 0.0
        assert report.score_table.total_seconds == report.wall_seconds

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            HypothesisExecutor(n_workers=0)

    def test_serialization_accounting(self, hypotheses):
        executor = HypothesisExecutor(n_workers=1,
                                      measure_serialization=True)
        report = executor.run(hypotheses, scorer="CorrMax")
        accounting = report.accounting
        assert accounting is not None
        assert accounting.calls == len(hypotheses)
        assert accounting.bytes_moved > 0
        assert 0.0 <= accounting.serialization_share <= 1.0

    def test_univariate_serialization_share_exceeds_joint(self, hypotheses):
        """§6.2: serialisation is a larger share for cheap scorers."""
        cheap = HypothesisExecutor(
            n_workers=1, measure_serialization=True).run(
            hypotheses, scorer="CorrMax").accounting
        joint = HypothesisExecutor(
            n_workers=1, measure_serialization=True).run(
            hypotheses, scorer="L2").accounting
        assert cheap.serialization_share > joint.serialization_share

    def test_empty_hypothesis_list(self):
        report = HypothesisExecutor().run([], scorer="CorrMax")
        assert report.timings == []
        assert report.mean_seconds_per_family() == 0.0
