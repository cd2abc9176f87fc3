"""Figures 3, 5, 6, 7, 8, 9, 14 and 15: the paper's time-series panels.

Each test regenerates the underlying data series and asserts the visual
claim the figure makes (a spike is visible, a distribution shifts, spikes
disappear after a fix, a prediction tracks one component but not
another), printing compact numeric summaries of the series.
"""

import numpy as np
import pytest

from repro.scoring import L2Scorer
from repro.tsdb import SeriesId
from repro.workloads.scenarios import (
    conditioning_scenario_fixed,
    periodic_namenode_scenario_fixed,
    raid_intervention_experiment,
    sawtooth_temperature_scenario,
)


def _runtime(store):
    _, values = store.arrays(SeriesId.make(
        "pipeline_runtime", {"pipeline_name": "pipeline-1"}))
    return values


class TestFigure3Pseudocause:
    def test_pseudocause_blocks_seasonal_cause(self, benchmark, rng=None):
        """Conditioning on Ys reveals Cr without knowing Cs (Figure 3)."""
        from repro.core.pseudocause import pseudocauses
        rng = np.random.default_rng(4)
        n, period = 240, 24
        seasonal = 4.0 * np.sin(2 * np.pi * np.arange(n) / period)
        residual = np.zeros(n)
        residual[130:150] = 5.0
        y = (seasonal + residual + 0.2 * rng.standard_normal(n))[:, None]
        cs = (seasonal + 0.3 * rng.standard_normal(n))[:, None]
        cr = (residual + 0.3 * rng.standard_normal(n))[:, None]
        z = pseudocauses(y, period=period)
        scorer = L2Scorer()
        scores = benchmark.pedantic(
            lambda: {
                "cs_raw": scorer.score(cs, y),
                "cr_raw": scorer.score(cr, y),
                "cs_cond": scorer.score(cs, y, z),
                "cr_cond": scorer.score(cr, y, z),
            }, rounds=1, iterations=1)
        print(f"\n[Figure 3] scores: {scores}")
        assert scores["cs_raw"] > scores["cr_raw"]      # seasonality wins raw
        assert scores["cr_cond"] > scores["cs_cond"]    # pseudocause flips it
        assert scores["cs_cond"] < 0.2


class TestFigure5RuntimeSpike:
    def test_fault_window_spike(self, scenario_51, benchmark):
        runtime = benchmark.pedantic(lambda: _runtime(scenario_51.store),
                                     rounds=1, iterations=1)
        start, end = scenario_51.fault_window
        inside = runtime[start:end].mean()
        outside = np.concatenate([runtime[:start], runtime[end:]]).mean()
        print(f"\n[Figure 5] runtime inside fault window: {inside:.1f}, "
              f"outside: {outside:.1f}")
        assert inside > outside + 5.0


class TestFigure6BeforeAfterFix:
    def test_distribution_shift(self, scenario_52, benchmark):
        fixed = conditioning_scenario_fixed(seed=0)
        before = _runtime(scenario_52.store)
        after = benchmark.pedantic(lambda: _runtime(fixed.store),
                                   rounds=1, iterations=1)
        print(f"\n[Figure 6] mean runtime before fix: {before.mean():.1f}, "
              f"after: {after.mean():.1f}; p95 before: "
              f"{np.percentile(before, 95):.1f}, after: "
              f"{np.percentile(after, 95):.1f}")
        # The paper observed ~10% reduction; we require a clear drop.
        assert after.mean() < before.mean()
        assert np.percentile(after, 95) < np.percentile(before, 95)


class TestFigure7PeriodicSpikesDisappear:
    def test_spikes_before_and_not_after(self, scenario_53, benchmark):
        fixed = periodic_namenode_scenario_fixed(seed=0)
        before = _runtime(scenario_53.store)
        after = benchmark.pedantic(lambda: _runtime(fixed.store),
                                   rounds=1, iterations=1)
        threshold = after.mean() + 4 * after.std()
        spikes_before = int((before > threshold).sum())
        spikes_after = int((after > threshold).sum())
        print(f"\n[Figure 7] spike samples before fix: {spikes_before}, "
              f"after: {spikes_after}")
        assert spikes_before > 10 * max(spikes_after, 1) \
            or spikes_after == 0


class TestFigure8WeeklySpikes:
    def test_weekly_regularity(self, scenario_54, benchmark):
        runtime = benchmark.pedantic(lambda: _runtime(scenario_54.store),
                                     rounds=1, iterations=1)
        period = scenario_54.extra["period"]
        duration = scenario_54.extra["duration"]
        offset = period // 3
        phase = (np.arange(runtime.size) - offset) % period
        in_check = runtime[phase < duration]
        out_check = runtime[phase >= duration]
        print(f"\n[Figure 8] runtime during weekly check: "
              f"{in_check.mean():.1f} vs {out_check.mean():.1f} otherwise "
              f"(period={period} samples)")
        assert in_check.mean() > out_check.mean() + 2.0


class TestFigure9Intervention:
    def test_capacity_knob_tracks_runtime(self, benchmark):
        scenario = benchmark.pedantic(
            lambda: raid_intervention_experiment(seed=0),
            rounds=1, iterations=1)
        runtime = _runtime(scenario.store)
        quarter = scenario.extra["segments"]
        means = [runtime[i * quarter:(i + 1) * quarter].mean()
                 for i in range(4)]
        print(f"\n[Figure 9] segment means (20% / off / 20% / 5%): "
              f"{[f'{m:.1f}' for m in means]}")
        assert means[0] > means[1]          # disabling the check helps
        assert means[2] > means[1]          # re-enabling hurts again
        assert means[3] < means[2]          # 5% cap helps


class TestFigure14ScoreWithoutExplanation:
    def test_high_score_bad_event_fit(self, benchmark):
        scenario = sawtooth_temperature_scenario(seed=0)
        store = scenario.store
        _, runtime = store.arrays(SeriesId.make(
            "pipeline_runtime", {"pipeline_name": "pipeline-1"}))
        _, temp = store.arrays(SeriesId.make(
            "cpu_temperature", {"host": "server-1"}))

        from bench_figure12_13_null import ESTIMATORS
        model = benchmark.pedantic(
            lambda: ESTIMATORS.Ridge(alpha=1.0).fit(temp[:, None], runtime),
            rounds=1, iterations=1)
        pred = model.predict(temp[:, None])
        spike_lo, spike_hi = scenario.fault_window
        spike_err = np.abs(runtime[spike_lo:spike_hi]
                           - pred[spike_lo:spike_hi]).mean()
        normal_mask = np.ones(runtime.size, dtype=bool)
        normal_mask[spike_lo:spike_hi] = False
        normal_err = np.abs(runtime[normal_mask]
                            - pred[normal_mask]).mean()
        print(f"\n[Figure 14] |error| on sawtooth region: "
              f"{normal_err:.2f}; on spike: {spike_err:.2f}")
        # The sawtooth is tracked well, the spike is not.
        assert spike_err > 5 * normal_err


class TestFigure15ResidualFit:
    def test_retransmits_explain_upward_residual_spikes(self, scenario_52,
                                                        benchmark):
        """Spikes above the mean are explained by retransmissions;
        dips below are not (Appendix D's observation)."""
        from repro.core.families import families_from_store
        from bench_figure12_13_null import ESTIMATORS
        families = families_from_store(scenario_52.store)
        y = families["pipeline_runtime"].matrix
        z = families["pipeline_input_rate"].matrix
        x = families["tcp_retransmits"].matrix
        y_res = ESTIMATORS.residualize(y, z)
        x_res = ESTIMATORS.residualize(x, z)
        model = benchmark.pedantic(
            lambda: ESTIMATORS.Ridge(alpha=1.0).fit(x_res, y_res),
            rounds=1, iterations=1)
        pred = model.predict(x_res)
        target = y_res.mean(axis=1)
        fitted = pred.mean(axis=1)
        ups = target > np.percentile(target, 85)
        downs = target < np.percentile(target, 15)
        corr_up = np.corrcoef(target[ups], fitted[ups])[0, 1]
        corr_down = np.corrcoef(target[downs], fitted[downs])[0, 1]
        print(f"\n[Figure 15] correlation on spikes above mean: "
              f"{corr_up:.2f}; on dips below mean: {corr_down:.2f}")
        assert corr_up > corr_down
        assert corr_up > 0.2
