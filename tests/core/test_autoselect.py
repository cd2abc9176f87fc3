"""Unit tests for automatic scorer selection."""

import numpy as np
import pytest

from repro.core.autoselect import (
    AutoScorer,
    SelectionDecision,
    choose_scorer,
    score_with_auto_selection,
)
from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses


def world(rng, widths, n=200):
    target = rng.standard_normal(n)
    fams = [FeatureFamily("target", target[:, None], ["t"], np.arange(n))]
    for i, width in enumerate(widths):
        data = rng.standard_normal((n, width))
        if i == 0:
            data[:, 0] = target + 0.2 * rng.standard_normal(n)
        fams.append(FeatureFamily(
            f"fam_{i}", data, [f"fam_{i}:{j}" for j in range(width)],
            np.arange(n)))
    return generate_hypotheses(FamilySet(fams), "target")


class TestChooseScorer:
    def test_all_univariate_picks_corrmax(self, rng):
        decision = choose_scorer(world(rng, [1, 1, 1]))
        assert decision.scorer_name == "CorrMax"

    def test_wide_families_pick_projection(self, rng):
        decision = choose_scorer(world(rng, [1, 300, 5]))
        assert decision.scorer_name.startswith("L2-P")
        assert "project" in decision.reason

    def test_moderate_widths_pick_l2(self, rng):
        decision = choose_scorer(world(rng, [3, 8, 5]))
        assert decision.scorer_name == "L2"

    def test_empty_space(self):
        decision = choose_scorer([])
        assert decision.scorer_name == "CorrMax"

    def test_decision_records_shape(self, rng):
        decision = choose_scorer(world(rng, [1, 300, 5]))
        assert decision.max_features == 300
        assert decision.n_samples == 200


class TestAutoScorer:
    def test_routes_by_width(self, rng):
        scorer = AutoScorer()
        xs = [rng.standard_normal(200),                      # univariate
              rng.standard_normal((200, 8)),                 # joint
              rng.standard_normal((200, 300))]               # projected
        assert [scorer.route(x) for x in xs] == \
            ["univariate", "joint", "projected-50"]

    def test_scores_sane(self, rng):
        scorer = AutoScorer()
        signal = rng.standard_normal(300)
        y = (signal + 0.2 * rng.standard_normal(300))[:, None]
        assert scorer.score(signal[:, None], y) > 0.8
        assert scorer.score(rng.standard_normal((300, 5)), y) < 0.1

    def test_conditioning_uses_joint_path(self, rng):
        scorer = AutoScorer()
        z = rng.standard_normal((300, 1))
        x = z + 0.3 * rng.standard_normal((300, 1))
        y = z + 0.3 * rng.standard_normal((300, 1))
        assert scorer.score(x, y, z) < 0.15
        assert scorer.route(x, z) == "joint"


class TestScoreWithAutoSelection:
    def test_end_to_end(self, rng):
        hyps = world(rng, [1, 4, 120])
        table, decision = score_with_auto_selection(hyps)
        assert isinstance(decision, SelectionDecision)
        assert table.results[0].family == "fam_0"
        assert table.scorer_name == "Auto"


class TestRegistry:
    def test_auto_scorer_registered(self):
        import repro.core.autoselect  # noqa: F401  (registration side effect)
        from repro.scoring import get_scorer
        scorer = get_scorer("auto")
        assert scorer.name == "Auto"

    def test_session_accepts_auto_by_name(self, rng):
        import numpy as np
        from repro.core.engine import ExplainItSession
        from repro.tsdb import SeriesId, TimeSeriesStore
        n = 150
        store = TimeSeriesStore()
        t = rng.standard_normal(n)
        store.insert_array(SeriesId.make("kpi"), np.arange(n), t)
        store.insert_array(SeriesId.make("cause"), np.arange(n),
                           t + 0.2 * rng.standard_normal(n))
        store.insert_array(SeriesId.make("noise"), np.arange(n),
                           rng.standard_normal(n))
        session = ExplainItSession(store)
        session.set_target("kpi")
        table = session.explain(scorer="Auto")
        assert table.results[0].family == "cause"


class TestServedAuto:
    def test_scorer_state_does_not_grow_across_served_explains(self, rng):
        """The server carries one ``Auto`` scorer across versions; 200
        explains, each after a write, leave its state as the first left
        it."""
        from repro.serve import QueryServer
        from repro.tsdb import SeriesId, TimeSeriesStore
        n = 60                                   # projection budget: 15
        stamps = np.arange(n)
        store = TimeSeriesStore()
        kpi = rng.standard_normal(n)
        store.insert_array(SeriesId.make("kpi"), stamps, kpi)
        written = []
        for name, width in (("cause", 1), ("joint", 3), ("wide", 16)):
            for j in range(width):
                series = SeriesId.make(name, {"j": str(j)})
                store.insert_array(series, stamps, rng.standard_normal(n))
                written.append(series)

        def footprint(scorer):
            return {name: len(value) if hasattr(value, "__len__")
                    else type(value).__name__
                    for name, value in vars(scorer).items()}

        with QueryServer(store, n_workers=1) as server:
            server.explain("kpi", scorer="Auto")
            scorer = server._core._latest.scorers["auto"]
            assert sorted(scorer.route(h.x.matrix) for h in server._core
                          ._latest.answers[("kpi", None, None, (), "auto")]
                          .hypotheses) == ["joint", "projected-15",
                                           "univariate"]
            first = footprint(scorer)
            for k in range(200):
                store.apply(written[k % len(written)],
                            lambda ts, vs: vs + 0.01)
                server.explain("kpi", scorer="Auto")
            assert server._core._latest.scorers["auto"] is scorer
            assert footprint(scorer) == first
