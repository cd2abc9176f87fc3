"""§6.2 scalability: runtime vs hypothesis count, serialisation share,
and the PC-algorithm baseline blow-up.

The paper's findings to reproduce in shape:
- scoring time is predominantly determined by the number of hypotheses;
- serialisation is ~25% of univariate score time but ~5% of joint;
- full-structure discovery (PC) is the wrong tool at scale.
"""

import time

import numpy as np

from repro.core.hypothesis import generate_hypotheses
from repro.engine_exec import SerializationAccounting, execute_batches
from repro.scoring import get_scorer
from repro.workloads.incidents import IncidentSpec, make_incident


def _hypotheses(n_families: int, seed: int = 0):
    incident = make_incident(IncidentSpec(
        0, "univariate", n_background=n_families, n_large_families=0,
        n_samples=180, seed=seed))
    return generate_hypotheses(incident.families, incident.target)


def timed_score(hyps, scorer: str):
    """``(scores, wall seconds)`` of one ``execute_batches`` call."""
    scorer = get_scorer(scorer)
    start = time.perf_counter()
    scores, _, _ = execute_batches(hyps, scorer)
    return scores, time.perf_counter() - start


class TestRuntimeScalesWithHypotheses:
    def test_linear_in_hypothesis_count(self, benchmark):
        timings = {}
        for count in (10, 40):
            hyps = _hypotheses(count)
            _, wall = benchmark.pedantic(
                timed_score, args=(hyps, "L2"),
                rounds=1, iterations=1) if count == 40 else \
                timed_score(hyps, "L2")
            timings[count] = wall / len(hyps)
        print(f"\n[§6.2] per-hypothesis seconds at 10 vs 40 families: "
              f"{timings[10]:.5f} vs {timings[40]:.5f}")
        # Per-hypothesis cost stays roughly flat => total is ~linear.
        assert timings[40] < timings[10] * 3.0


class TestSerializationShare:
    def test_univariate_share_larger_than_joint(self, benchmark):
        hyps = _hypotheses(30, seed=4)

        def measure(scorer):
            accounting = SerializationAccounting()
            execute_batches(hyps, get_scorer(scorer), accounting=accounting)
            return accounting

        cheap = benchmark.pedantic(measure, args=("CorrMax",),
                                   rounds=1, iterations=1)
        joint = measure("L2")
        print(f"\n[§6.2] serialisation share: CorrMax "
              f"{cheap.serialization_share:.1%} vs L2 "
              f"{joint.serialization_share:.1%} "
              f"(paper: ~25% vs ~5%)")
        assert cheap.serialization_share > joint.serialization_share
        assert joint.serialization_share < 0.25


class TestPcBaselineBlowup:
    """§7: full causal discovery cost explodes; per-hypothesis ranking
    stays flat.  This is why ExplainIt! does not learn the full DAG."""

    def test_pc_cost_grows_much_faster_than_ranking(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        from pc_baseline import pc_skeleton
        # Untimed: the first call pays one-off warm-up costs.
        pc_skeleton(np.random.default_rng(1).standard_normal((50, 3)),
                    alpha=0.01)
        rng = np.random.default_rng(0)
        pc_times = {}
        rank_times = {}
        for n_vars in (8, 16):
            data = rng.standard_normal((200, n_vars))
            start = time.perf_counter()
            pc_skeleton(data, alpha=0.01, max_conditioning=2)
            pc_times[n_vars] = time.perf_counter() - start

            hyps = _hypotheses(n_vars)
            start = time.perf_counter()
            timed_score(hyps, "CorrMax")
            rank_times[n_vars] = time.perf_counter() - start
        pc_growth = pc_times[16] / max(pc_times[8], 1e-9)
        rank_growth = rank_times[16] / max(rank_times[8], 1e-9)
        print(f"\n[§7] 8->16 variables: PC cost x{pc_growth:.1f}, "
              f"ranking cost x{rank_growth:.1f}")
        assert pc_growth > rank_growth
