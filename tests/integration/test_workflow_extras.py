"""Integration tests for the workflow extras: auto event windows and
lag-augmented scoring on a real scenario."""

import numpy as np
import pytest

from repro.workloads.scenarios import fault_injection_scenario


@pytest.fixture(scope="module")
def scenario():
    return fault_injection_scenario(seed=2)


class TestAutoEventWindow:
    def test_session_finds_the_fault_window(self, scenario):
        session = scenario.session()
        session.set_time_ranges(0, 288)
        event = session.suggest_event_window(window=40, threshold=3.5)
        assert event is not None
        start, end = scenario.fault_window
        # The detected window must overlap the injected fault window.
        assert event.start < end and event.end > start
        # And it is installed as the explain range for event_lift.
        assert session.event_lift("pipeline_runtime") > 1.0

    def test_no_event_on_healthy_target(self, rng):
        from repro.core.engine import ExplainItSession
        from repro.tsdb import SeriesId, TimeSeriesStore
        store = TimeSeriesStore()
        store.insert_array(SeriesId.make("kpi"), np.arange(300),
                           rng.standard_normal(300))
        session = ExplainItSession(store)
        session.set_target("kpi")
        assert session.suggest_event_window(threshold=6.0) is None


class TestTemporalBaselines:
    def test_lagged_scorer_on_latency_family(self, scenario):
        """pipeline_latency lags runtime by one step; lag-augmented
        scoring must not do worse than instantaneous scoring."""
        from repro.scoring import L2Scorer, LaggedScorer
        families = scenario.families()
        x = families["pipeline_runtime"].matrix
        y = families["pipeline_latency"].matrix
        plain = L2Scorer().score(x, y)
        lagged = LaggedScorer(lags=(0, 1)).score(x, y)
        assert lagged >= plain - 0.05
        assert lagged > 0.3
