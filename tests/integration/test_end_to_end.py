"""End-to-end integration: tsdb -> SQL -> families -> ranking -> report.

These tests stitch every subsystem together the way the paper's Figure 4
pipeline does, on generated incidents with known answers.
"""

import numpy as np
import pytest

from repro.core.engine import ExplainItSession
from repro.core.pipeline import DeclarativePipeline
from repro.core.ranking import build_score_table
from repro.engine_exec import HypothesisExecutor
from repro.scoring import get_scorer
from repro.sql import Database
from repro.tsdb.adapter import register_store
from repro.workloads.scenarios import fault_injection_scenario


@pytest.fixture(scope="module")
def scenario():
    return fault_injection_scenario(seed=1)


class TestSqlDrivenWorkflow:
    """The full declarative path of Appendix C on a simulated incident."""

    def test_listing_style_pipeline(self, scenario):
        db = Database()
        register_store(db, scenario.store)
        pipeline = DeclarativePipeline(db)
        pipeline.add_feature_queries(["""
            SELECT timestamp, metric_name, AVG(value) AS v
            FROM tsdb
            WHERE metric_name IN
                ('tcp_retransmits', 'disk_write_latency', 'disk_io',
                 'cpu_util', 'namenode_rpc_latency')
            GROUP BY timestamp, metric_name
            ORDER BY timestamp ASC
        """])
        pipeline.set_target_query("""
            SELECT timestamp, metric_name, AVG(value) AS runtime_sec
            FROM tsdb
            WHERE metric_name = 'pipeline_runtime'
            GROUP BY timestamp, metric_name
            ORDER BY timestamp ASC
        """)
        score_table = pipeline.run(scorer="L2")
        ranking = [r.family for r in score_table.results]
        # The injected fault's signature families lead the ranking.
        assert set(ranking[:2]) <= {"tcp_retransmits",
                                    "disk_write_latency",
                                    "namenode_rpc_latency", "disk_io"}
        # And the Score Table answers SQL (stage 3).
        top = db.sql("SELECT family, score FROM score "
                     "WHERE significant_bh = TRUE ORDER BY rank LIMIT 1")
        assert len(top) == 1

    def test_sql_drilldown_on_tags(self, scenario):
        """Group by host instead of metric name (the §3.2 alternative)."""
        session = ExplainItSession(scenario.store, group_by="tag:host")
        session.set_target("NULL")  # pipelines have no host tag
        # Using tag grouping, the target family is the pipeline metrics
        # (host=NULL); datanode hosts should explain it.
        table = session.explain(scorer="CorrMax")
        assert table.n_hypotheses > 0
        top = table.results[0].family
        assert top.startswith("datanode") or top.startswith("namenode")


class TestParallelEquivalence:
    def test_executor_agrees_with_session(self, scenario):
        session = ExplainItSession(scenario.store)
        session.set_target("pipeline_runtime")
        serial_table = session.explain(scorer="CorrMax")
        from repro.core.hypothesis import generate_hypotheses
        hyps = generate_hypotheses(session.families(), "pipeline_runtime")
        scorer = get_scorer("CorrMax")
        scores, seconds, _ = HypothesisExecutor(n_workers=4).score(hyps,
                                                                   scorer)
        table = build_score_table(hyps, scores, seconds, scorer.name)
        assert [r.family for r in table.results] == \
            [r.family for r in serial_table.results]


class TestCaseStudyWorkflowLoop:
    def test_iterative_narrowing(self, scenario):
        """Algorithm 1's loop: global search, then drill down."""
        session = scenario.session()
        first = session.explain(scorer="CorrMax")
        suspects = [r.family for r in first.top(6)
                    if r.family in scenario.causes]
        assert suspects, "expected a cause in the global top-6"
        second = session.drill_down(suspects, scorer="L2")
        assert second.results[0].family in scenario.causes
        assert len(session.history) == 2

    def test_scores_stable_across_scorers_for_strong_cause(self, scenario):
        session = scenario.session()
        ranks = {}
        for scorer in ("CorrMax", "L2", "L2-P50"):
            table = session.explain(scorer=scorer)
            ranks[scorer] = min(
                (table.rank_of(c) for c in scenario.causes
                 if table.rank_of(c) is not None), default=None)
        assert all(rank is not None and rank <= 8
                   for rank in ranks.values()), ranks
