"""§6.2 scalability: runtime vs hypothesis count, parallel speedup,
serialisation share, and the PC-algorithm baseline blow-up.

The paper's findings to reproduce in shape:
- scoring time is predominantly determined by the number of hypotheses;
- serialisation is ~25% of univariate score time but ~5% of joint;
- hypothesis-level parallelism scales without distributed-ML complexity;
- full-structure discovery (PC) is the wrong tool at scale.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.engine_exec import HypothesisExecutor
from repro.workloads.incidents import IncidentSpec, make_incident


def _hypotheses(n_families: int, seed: int = 0):
    incident = make_incident(IncidentSpec(
        0, "univariate", n_background=n_families, n_large_families=0,
        n_samples=180, seed=seed))
    return generate_hypotheses(incident.families, incident.target)


def _wide_hypotheses(n_families: int = 16, n_features: int = 30,
                     n_samples: int = 180, seed: int = 3):
    """Few families, each expensive to score: parallelism has to win on
    per-hypothesis work, not on hypothesis count."""
    rng = np.random.default_rng(seed)
    grid = np.arange(n_samples)
    target = rng.standard_normal(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i in range(n_families):
        fams.append(FeatureFamily(
            f"fam_{i}", 0.5 * target[:, None]
            + rng.standard_normal((n_samples, n_features)),
            [f"fam_{i}:{j}" for j in range(n_features)], grid))
    return generate_hypotheses(FamilySet(fams), "target")


class TestRuntimeScalesWithHypotheses:
    def test_linear_in_hypothesis_count(self, benchmark):
        executor = HypothesisExecutor(n_workers=1)
        timings = {}
        for count in (10, 40):
            hyps = _hypotheses(count)
            report = benchmark.pedantic(
                executor.run, args=(hyps,), kwargs={"scorer": "L2"},
                rounds=1, iterations=1) if count == 40 else \
                executor.run(hyps, scorer="L2")
            timings[count] = report.wall_seconds / len(hyps)
        print(f"\n[§6.2] per-hypothesis seconds at 10 vs 40 families: "
              f"{timings[10]:.5f} vs {timings[40]:.5f}")
        # Per-hypothesis cost stays roughly flat => total is ~linear.
        assert timings[40] < timings[10] * 3.0


class TestParallelSpeedup:
    def test_workers_reduce_wall_time(self, benchmark):
        hyps = _wide_hypotheses()
        # L1's coordinate descent is a Python loop, so only separate
        # processes overlap it.  Both pools are forked and warmed first:
        # the comparison is scheduling, not start-up.
        executor = HypothesisExecutor(backend="process")
        with ProcessPoolExecutor(1) as one, ProcessPoolExecutor(4) as four:
            for pool in (one, four):
                executor.run(hyps[:4], scorer="L1", process_pool=pool)
            serial = executor.run(hyps, scorer="L1", process_pool=one)
            parallel = benchmark.pedantic(
                executor.run, args=(hyps,),
                kwargs={"scorer": "L1", "process_pool": four},
                rounds=1, iterations=1)
        print(f"\n[§6.2] wall seconds 1 worker: {serial.wall_seconds:.2f}, "
              f"4 workers: {parallel.wall_seconds:.2f}")
        # A pool of one against a pool of four; require headroom rather
        # than the full 4x (machine-dependent).
        assert parallel.wall_seconds < serial.wall_seconds * 1.1
        # Results identical regardless of parallelism.
        assert [r.family for r in parallel.score_table.results] == \
            [r.family for r in serial.score_table.results]


class TestSerializationShare:
    def test_univariate_share_larger_than_joint(self, benchmark):
        hyps = _hypotheses(30, seed=4)

        def measure(scorer):
            executor = HypothesisExecutor(n_workers=1,
                                          measure_serialization=True)
            return executor.run(hyps, scorer=scorer).accounting

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
        from repro.causal import pc_skeleton
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
            HypothesisExecutor(n_workers=1).run(hyps, scorer="CorrMax")
            rank_times[n_vars] = time.perf_counter() - start
        pc_growth = pc_times[16] / max(pc_times[8], 1e-9)
        rank_growth = rank_times[16] / max(rank_times[8], 1e-9)
        print(f"\n[§7] 8->16 variables: PC cost x{pc_growth:.1f}, "
              f"ranking cost x{rank_growth:.1f}")
        assert pc_growth > rank_growth
