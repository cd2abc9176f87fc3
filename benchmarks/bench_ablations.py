"""Ablation benches for the design choices DESIGN.md calls out.

1. Contiguous vs shuffled CV folds on autocorrelated series (§3.5's
   requirement that validation ranges not overlap training ranges).
2. Random projection vs PCA truncation (§4.2's argument against PCA).
3. Ridge vs Lasso penalty (§3.5: both work; Ridge preferred for speed).
4. Conditioning on input size vs not (§5.2's headline point).
5. Pseudocause conditioning vs raw target (§3.4 / Figure 3).
"""

import time

import numpy as np
import pytest

from repro.linmodel.crossval import ShuffledKFold, TimeSeriesKFold
from repro.linmodel.batched import batched_cross_val_r2
from repro.scoring import L2Scorer, L1Scorer
from repro.scoring.projection import PcaL2Scorer, ProjectedL2Scorer


class TestCvFoldAblation:
    """Shuffled folds leak autocorrelated neighbours -> optimistic r²."""

    def test_shuffled_folds_overestimate_on_autocorrelated_noise(
            self, benchmark):
        rng = np.random.default_rng(0)
        n = 300
        # Strongly autocorrelated, causally unrelated pair.
        def ar1(rho, steps):
            noise = rng.standard_normal(steps)
            out = np.empty(steps)
            out[0] = noise[0]
            for t in range(1, steps):
                out[t] = rho * out[t - 1] + noise[t]
            return out
        x = np.column_stack([ar1(0.98, n) for _ in range(5)])
        y = ar1(0.98, n)

        def score(splitter):
            return batched_cross_val_r2(x[None], y,
                                        splitter=splitter)[0].best_score

        contiguous = benchmark.pedantic(
            score, args=(TimeSeriesKFold(5),), rounds=1, iterations=1)
        shuffled = score(ShuffledKFold(5, seed=1))
        print(f"\n[ablation: CV folds] contiguous r²={contiguous:.3f}, "
              f"shuffled r²={shuffled:.3f} (both series are unrelated)")
        # Shuffled folds leak neighbouring samples into training and
        # report an optimistic score for a causally-unrelated pair.
        assert shuffled > contiguous + 0.02


class TestProjectionAblation:
    """Random projection preserves anomalies; PCA discards them."""

    def test_rp_beats_pca_on_anomaly_explanation(self, benchmark):
        rng = np.random.default_rng(1)
        n, f = 300, 80
        normal = rng.standard_normal((n, 4)) @ (
            3.0 * rng.standard_normal((4, f)))
        anomaly = ((np.arange(n) % 50) < 8).astype(float)
        direction = rng.standard_normal(f)
        direction /= np.linalg.norm(direction)
        x = normal + np.outer(anomaly, 3.0 * direction) \
            + 0.3 * rng.standard_normal((n, f))
        y = anomaly[:, None] + 0.05 * rng.standard_normal((n, 1))
        rp = benchmark.pedantic(
            ProjectedL2Scorer(d=40, seed=0).score, args=(x, y),
            rounds=1, iterations=1)
        pca = PcaL2Scorer(d=4).score(x, y)
        print(f"\n[ablation: projection] random projection r²={rp:.3f}, "
              f"PCA r²={pca:.3f}")
        assert rp > pca + 0.3


class TestPenaltyAblation:
    """Ridge and Lasso rank alike; Ridge is faster (shared SVD path)."""

    def test_quality_parity_and_speed_gap(self, benchmark):
        rng = np.random.default_rng(2)
        n, f = 240, 30
        signal = rng.standard_normal(n)
        x = (np.outer(signal, rng.standard_normal(f)) / np.sqrt(f)
             + rng.standard_normal((n, f)))
        y = signal[:, None] + 0.4 * rng.standard_normal((n, 1))
        noise = rng.standard_normal((n, f))

        l2, l1 = L2Scorer(), L1Scorer()
        start = time.perf_counter()
        l2_signal = benchmark.pedantic(l2.score, args=(x, y),
                                       rounds=1, iterations=1)
        l2_seconds = time.perf_counter() - start
        start = time.perf_counter()
        l1_signal = l1.score(x, y)
        l1_seconds = time.perf_counter() - start
        l2_noise = l2.score(noise, y)
        l1_noise = l1.score(noise, y)
        print(f"\n[ablation: penalty] signal r²: L2={l2_signal:.3f} "
              f"L1={l1_signal:.3f}; noise r²: L2={l2_noise:.3f} "
              f"L1={l1_noise:.3f}; seconds: L2={l2_seconds:.3f} "
              f"L1={l1_seconds:.3f}")
        # Quality parity: both detect the signal and reject noise.
        assert abs(l2_signal - l1_signal) < 0.2
        assert l2_noise < 0.1 and l1_noise < 0.1
        # Speed: Ridge's SVD path beats coordinate descent.
        assert l2_seconds < l1_seconds


class TestConditioningAblation:
    """§5.2: conditioning on input size changes the ranking materially."""

    def test_rank_shift_of_network_families(self, scenario_52, benchmark):
        session = scenario_52.session()
        session.set_condition(None)
        raw = benchmark.pedantic(
            lambda: session.explain(scorer="L2"), rounds=1, iterations=1)
        session.set_condition("pipeline_input_rate")
        conditioned = session.explain(scorer="L2")
        raw_rank = raw.rank_of("tcp_retransmits")
        cond_rank = conditioned.rank_of("tcp_retransmits")
        print(f"\n[ablation: conditioning] tcp_retransmits rank "
              f"unconditioned: {raw_rank}, conditioned: {cond_rank}")
        assert cond_rank < raw_rank


class TestPseudocauseAblation:
    """§3.4: pseudocause conditioning isolates the residual cause."""

    def test_residual_cause_rank_improves(self, benchmark):
        from repro.core.engine import ExplainItSession
        from repro.tsdb import SeriesId, TimeSeriesStore
        rng = np.random.default_rng(5)
        n, period = 240, 24
        ts = np.arange(n)
        seasonal = 5.0 * np.sin(2 * np.pi * ts / period)
        residual = np.zeros(n)
        residual[140:160] = 4.0
        store = TimeSeriesStore()
        store.insert_array(SeriesId.make("kpi"), ts,
                           seasonal + residual
                           + 0.2 * rng.standard_normal(n))
        store.insert_array(SeriesId.make("seasonal_svc"), ts,
                           seasonal + 0.2 * rng.standard_normal(n))
        store.insert_array(SeriesId.make("residual_svc"), ts,
                           residual + 0.2 * rng.standard_normal(n))
        for i in range(4):
            store.insert_array(SeriesId.make(f"noise_{i}"), ts,
                               rng.standard_normal(n))
        session = ExplainItSession(store)
        session.set_target("kpi")
        raw = benchmark.pedantic(
            lambda: session.explain(scorer="L2"), rounds=1, iterations=1)
        session.condition_on_pseudocause(period=period)
        conditioned = session.explain(scorer="L2")
        print(f"\n[ablation: pseudocause] residual_svc rank raw: "
              f"{raw.rank_of('residual_svc')}, with pseudocause: "
              f"{conditioned.rank_of('residual_svc')}")
        assert conditioned.rank_of("residual_svc") == 1
        assert raw.rank_of("residual_svc") > 1


class TestAutoSelectionAblation:
    """§6.1 future work: automatic selection vs every fixed scorer."""

    def test_auto_close_to_best_fixed(self, incidents, benchmark):
        from repro.core.autoselect import AutoScorer
        from repro.core.hypothesis import generate_hypotheses
        from repro.core.ranking import rank_families
        from repro.evalkit.metrics import discounted_gain, summarize_gains

        subset = incidents[:6]
        auto_gains = []
        fixed_gains = {"CorrMax": [], "L2-P50": []}

        def run_all():
            for incident in subset:
                hyps = generate_hypotheses(incident.families,
                                           incident.target)
                auto_table = rank_families(hyps, scorer=AutoScorer())
                auto_gains.append(discounted_gain(
                    [r.family for r in auto_table.results],
                    incident.causes))
                for name in fixed_gains:
                    fixed = rank_families(hyps, scorer=name)
                    fixed_gains[name].append(discounted_gain(
                        [r.family for r in fixed.results],
                        incident.causes))

        benchmark.pedantic(run_all, rounds=1, iterations=1)
        auto_avg = summarize_gains(auto_gains)["average"]
        best_fixed = max(summarize_gains(g)["average"]
                         for g in fixed_gains.values())
        print(f"\n[ablation: auto-select] auto avg gain {auto_avg:.3f} "
              f"vs best fixed {best_fixed:.3f}")
        assert auto_avg >= best_fixed - 0.15


class TestRankFusionAblation:
    """§8 ongoing work: fusing multiple queries' rankings."""

    def test_fusion_at_least_as_good_as_median_scorer(self, incidents,
                                                      benchmark):
        from rank_fusion import reciprocal_rank_fusion
        from repro.core.hypothesis import generate_hypotheses
        from repro.core.ranking import rank_families
        from repro.evalkit.metrics import discounted_gain, summarize_gains

        subset = incidents[:6]
        scorers = ("CorrMax", "L2", "L2-P50")
        fused_gains = []
        per_scorer = {s: [] for s in scorers}

        def run_all():
            for incident in subset:
                hyps = generate_hypotheses(incident.families,
                                           incident.target)
                tables = [rank_families(hyps, scorer=s) for s in scorers]
                for s, t in zip(scorers, tables):
                    per_scorer[s].append(discounted_gain(
                        [r.family for r in t.results], incident.causes))
                fused = reciprocal_rank_fusion(tables)
                fused_gains.append(discounted_gain(
                    [r.family for r in fused.results], incident.causes))

        benchmark.pedantic(run_all, rounds=1, iterations=1)
        fused_avg = summarize_gains(fused_gains)["average"]
        singles = sorted(summarize_gains(g)["average"]
                         for g in per_scorer.values())
        median_single = singles[len(singles) // 2]
        print(f"\n[ablation: rank fusion] fused avg gain {fused_avg:.3f} "
              f"vs per-scorer {['%.3f' % s for s in singles]}")
        assert fused_avg >= median_single - 0.05
