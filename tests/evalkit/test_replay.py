"""Tests for the incident-replay harness and its grading metrics."""

import json

import pytest

from repro.evalkit.metrics import precision_at_k, recall_at_k
from repro.evalkit.replay import (
    DEFAULT_KS,
    DEFAULT_SCORERS,
    TOP_PREVIEW,
    format_scorecard,
    grade_ranking,
    replay_matrix,
)
from repro.workloads.matrix import ScenarioSpec, build_scenario, matrix_specs

SMOKE = matrix_specs("smoke")


@pytest.fixture(scope="module")
def smoke_card():
    return replay_matrix(SMOKE, scorers=DEFAULT_SCORERS, matrix="smoke")


class TestPrecisionRecallAtK:
    RANKING = ["a", "b", "c", "d", "e"]

    def test_precision_counts_cause_hits(self):
        assert precision_at_k(self.RANKING, {"a", "c"}, 3) == 2 / 3
        assert precision_at_k(self.RANKING, {"e"}, 3) == 0.0
        assert precision_at_k(self.RANKING, {"a"}, 1) == 1.0

    def test_precision_short_ranking_keeps_k_denominator(self):
        assert precision_at_k(["a"], {"a"}, 5) == 1 / 5

    def test_recall_capped_denominator(self):
        # 4 causes, k=3: a perfect top-3 is 1.0, not 0.75.
        assert recall_at_k(["a", "b", "c", "x"], {"a", "b", "c", "d"},
                           3) == 1.0
        assert recall_at_k(["a", "x", "y"], {"a", "b"}, 3) == 0.5

    def test_recall_more_slots_than_causes(self):
        assert recall_at_k(["x", "a", "y"], {"a"}, 3) == 1.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            precision_at_k(self.RANKING, {"a"}, 0)
        with pytest.raises(ValueError, match="positive"):
            recall_at_k(self.RANKING, {"a"}, -1)

    def test_recall_needs_causes(self):
        with pytest.raises(ValueError, match="labelled cause"):
            recall_at_k(self.RANKING, set(), 3)


class TestGradeRanking:
    def test_effects_filtered_for_recall_not_gain(self):
        scenario = build_scenario(
            ScenarioSpec("microservice_cascade", "base", 0))
        effect = next(iter(scenario.effects))
        cause = sorted(scenario.causes)[0]
        fillers = [f for f in scenario.families.names()
                   if f not in scenario.causes | scenario.effects][:2]
        ranking = [effect, cause] + fillers
        graded = grade_ranking(ranking, scenario, ks=(1, 2))
        # Gains see the full ranking: the effect costs one rank.
        assert graded["first_cause_rank"] == 2
        assert graded["gain"] == 0.5
        # Recall/precision see the effect-filtered ranking.
        assert graded["recall_at"][1] == 1.0
        assert graded["precision_at"][1] == 1.0
        assert effect not in graded["top_families"]
        assert graded["top_families"][0] == cause

    def test_top_families_preview_is_bounded(self):
        scenario = build_scenario(ScenarioSpec("slow_burn", "wide", 0))
        ranking = sorted(scenario.families.names())
        graded = grade_ranking(ranking, scenario, ks=(3,))
        assert len(graded["top_families"]) == TOP_PREVIEW


class TestReplayMatrix:
    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError, match="no scenario specs"):
            replay_matrix([])

    def test_cell_and_run_counts(self, smoke_card):
        assert len(smoke_card.runs) == len(SMOKE)
        assert len(smoke_card.cells) == len(SMOKE) * len(DEFAULT_SCORERS)
        assert smoke_card.ks == DEFAULT_KS
        for cell in smoke_card.cells:
            assert set(cell.precision_at) == set(DEFAULT_KS)
            assert set(cell.recall_at) == set(DEFAULT_KS)

    def test_cell_lookup(self, smoke_card):
        cell = smoke_card.cell("slow_burn/base#0", "L2")
        assert cell.family == "slow_burn"
        assert cell.scorer == "L2"
        with pytest.raises(KeyError):
            smoke_card.cell("slow_burn/base#0", "NoSuchScorer")

    def test_families_ordered_dedup(self, smoke_card):
        assert smoke_card.families() == [s.family for s in SMOKE]

    def test_min_recall_matches_cells(self, smoke_card):
        worst = smoke_card.min_recall("network_congestion", k=3)
        cells = smoke_card.by_family("network_congestion")
        assert worst == min(c.recall_at[3] for c in cells)
        with pytest.raises(KeyError):
            smoke_card.min_recall("unknown_family", k=3)

    def test_scorer_summary_has_gains_and_pr(self, smoke_card):
        summary = smoke_card.scorer_summary("CorrMax")
        assert {"harmonic_mean", "average"} <= set(summary)
        for k in DEFAULT_KS:
            assert 0.0 <= summary[f"precision@{k}"] <= 1.0
            assert 0.0 <= summary[f"recall@{k}"] <= 1.0


class TestScorecardSerialisation:
    def test_json_deterministic_across_runs(self):
        card_a = replay_matrix(SMOKE[:2], matrix="smoke")
        card_b = replay_matrix(SMOKE[:2], matrix="smoke")
        assert (card_a.to_json(with_timings=False)
                == card_b.to_json(with_timings=False))

    def test_timings_toggle(self, smoke_card):
        with_t = smoke_card.to_payload(with_timings=True)
        without_t = smoke_card.to_payload(with_timings=False)
        assert "rank_seconds" in with_t["cells"][0]
        assert "rank_seconds" not in without_t["cells"][0]
        assert "build_seconds" in with_t["runs"][0]
        assert "build_seconds" not in without_t["runs"][0]

    def test_meta_toggle(self, smoke_card):
        with_meta = smoke_card.to_payload(with_meta=True)
        without_meta = smoke_card.to_payload(with_meta=False)
        assert "backend" in with_meta
        assert "backend" not in without_meta
        assert "transfer" not in with_meta

    def test_process_card_is_labelled_by_backend_alone(self):
        card = replay_matrix(SMOKE[:1], scorers=("CorrMax",),
                             backend="process", n_workers=2,
                             matrix="smoke")
        payload = card.to_payload()
        assert payload["backend"] == "process"
        assert "transfer" not in payload

    def test_json_round_trips(self, smoke_card):
        doc = json.loads(smoke_card.to_json())
        assert doc["matrix"] == "smoke"
        assert len(doc["cells"]) == len(smoke_card.cells)
        assert set(doc["summary"]) == set(DEFAULT_SCORERS)


class TestFormatScorecard:
    def test_table_contains_every_scenario_and_summary(self, smoke_card):
        text = format_scorecard(smoke_card)
        for run in smoke_card.runs:
            assert run.scenario in text
        assert "Harmonic mean (discounted gain)" in text
        assert "Mean recall@3" in text
        assert "Stages: build" in text


class TestBackendParity:
    """Satellite: the scorecard is identical across execution backends.

    All backends funnel through ``build_score_table``'s deterministic
    sort, and the scorers are bitwise reproducible — so the graded
    scorecard must not depend on how the ranking work was scheduled.
    """

    def test_process_backend_matches_in_process(self, smoke_card):
        card = replay_matrix(SMOKE, scorers=DEFAULT_SCORERS,
                             backend="process", n_workers=2,
                             matrix="smoke")
        assert (card.to_json(with_timings=False, with_meta=False)
                == smoke_card.to_json(with_timings=False, with_meta=False))

    def test_in_process_matches_sequential_oracle(self, smoke_card,
                                                  monkeypatch):
        """Ranking each scenario with the per-hypothesis reference loop
        instead grades to the byte-identical scorecard."""
        import repro.evalkit.replay as replay_module
        from tests.scoring.reference import reference_rank

        monkeypatch.setattr(
            replay_module, "rank_families",
            lambda hypotheses, scorer, **_: reference_rank(hypotheses,
                                                           scorer))
        card = replay_matrix(SMOKE, scorers=DEFAULT_SCORERS, matrix="smoke")
        assert (card.to_json(with_timings=False, with_meta=False)
                == smoke_card.to_json(with_timings=False, with_meta=False))
