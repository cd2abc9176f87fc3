"""The paper's Appendix C SQL listings, run verbatim on the engine.

These are the flagship fidelity tests for the declarative layer: each
listing (modulo the T1/T2 time-range parameters, which are bound to
literals) must parse and produce the documented shape.
"""

import pytest

from repro.sql import Database, Table
from repro.tsdb import SeriesId, TimeSeriesStore
from repro.tsdb.adapter import register_store


@pytest.fixture
def paper_db() -> Database:
    store = TimeSeriesStore()
    for pipe in ("p1", "p2"):
        sid_rt = SeriesId.make("pipeline_runtime", {"pipeline_name": pipe})
        sid_in = SeriesId.make("pipeline_input_rate",
                               {"pipeline_name": pipe})
        for t in range(20):
            store.insert(sid_rt, t, 10.0 + t + (5 if pipe == "p2" else 0))
            store.insert(sid_in, t, 100.0 + 2 * t)
    db = Database()
    register_store(db, store)
    db.register("flows", Table(
        ["timestamp", "src_address", "service_port", "dst_port", "pkts",
         "bytes", "network_latency", "retransmissions",
         "handshake_latency", "burstiness"],
        [
            (0, "10.0.0.1", "80", "80", 100, 1000, 1.0, 2, 0.5, 0.1),
            (0, "10.0.0.2", "80", "80", 150, 1500, 2.0, 1, 0.6, 0.2),
            (1, "10.0.0.1", "80", "80", 120, 1200, 1.5, 0, 0.4, 0.3),
        ],
    ))
    db.register("processes", Table(
        ["timestamp", "service_name", "hostname", "stime", "utime",
         "statm_resident", "read_b", "write_b", "cancelled_write_b"],
        [
            (0, "svc1", "web-1", 1.0, 2.0, 100.0, 10.0, 20.0, 5.0),
            (0, "svc2", "app-1", 2.0, 3.0, 200.0, 15.0, 10.0, 30.0),
            (1, "svc1", "web-2", 1.5, 2.5, 120.0, 12.0, 25.0, 0.0),
            (1, "svc3", "db-1", 9.0, 9.0, 500.0, 90.0, 80.0, 0.0),
            (1, "svc4", "cache-1", 9.0, 9.0, 500.0, 90.0, 80.0, 0.0),
        ],
    ))
    return db


class TestListing1TargetMetric:
    def test_target_family_query(self, paper_db):
        result = paper_db.sql("""
            SELECT
                timestamp, tag['pipeline_name'],
                AVG(value) as runtime_sec
            FROM tsdb
            WHERE metric_name = 'pipeline_runtime'
                AND timestamp BETWEEN 5 and 10
            GROUP BY timestamp, tag['pipeline_name']
            ORDER BY timestamp ASC
        """)
        assert len(result) == 12      # 6 timestamps x 2 pipelines
        assert result.columns[-1] == "runtime_sec"
        first = result.rows[0]
        assert first[0] == 5

    def test_listing_runs_on_the_columnar_tier(self, paper_db):
        # An expression group key (tag['pipeline_name']) used to send
        # the paper's first listing to the row interpreter.
        plan = paper_db.explain("""
            SELECT timestamp, tag['pipeline_name'],
                   AVG(value) as runtime_sec
            FROM tsdb
            WHERE metric_name = 'pipeline_runtime'
                AND timestamp BETWEEN 5 and 10
            GROUP BY timestamp, tag['pipeline_name']
            ORDER BY timestamp ASC
        """)
        aggregate = next(line for line in plan.splitlines()
                         if line.strip().startswith("Aggregate"))
        assert "actual=12 rows, engine=columnar" in aggregate
        assert "engine=row" not in plan

    def test_result_usable_as_temp_table(self, paper_db):
        paper_db.create_temp_table("Target", """
            SELECT timestamp, tag['pipeline_name'] AS pipeline_name,
                   AVG(value) as runtime_sec
            FROM tsdb
            WHERE metric_name = 'pipeline_runtime'
            GROUP BY timestamp, tag['pipeline_name']
            ORDER BY timestamp ASC
        """)
        count = paper_db.sql("SELECT COUNT(*) FROM Target")
        assert count.rows == [(40,)]


class TestListing2NetworkFeatures:
    def test_network_feature_query(self, paper_db):
        result = paper_db.sql("""
            SELECT
                timestamp, CONCAT(src_address, service_port),
                AVG(pkts), AVG(bytes),
                AVG(network_latency), AVG(retransmissions),
                AVG(handshake_latency), AVG(burstiness)
            FROM flows
            WHERE timestamp BETWEEN 0 and 10
            GROUP BY timestamp, CONCAT(src_address, dst_port)
            ORDER BY timestamp ASC
        """)
        # 2 distinct (ts=0) groups + 1 (ts=1) group
        assert len(result) == 3
        assert len(result.columns) == 8


class TestListing3ProcessFeatures:
    def test_process_feature_query(self, paper_db):
        result = paper_db.sql("""
            SELECT
                timestamp,
                CONCAT(service_name, SPLIT(hostname, '-')[0]),
                AVG(stime + utime) as cpu,
                AVG(statm_resident) as mem,
                AVG(read_b),
                AVG(GREATEST(write_b - cancelled_write_b, 0))
            FROM processes
            WHERE
                SPLIT(hostname, '-')[0] IN
                ('web', 'app', 'db', 'pipeline') AND
                timestamp BETWEEN 0 and 10
            GROUP BY
                timestamp,
                CONCAT(service_name, SPLIT(hostname, '-')[0])
            ORDER BY timestamp ASC
        """)
        # cache-1 host excluded by the IN filter.
        assert len(result) == 4
        groups = result.column(result.columns[1])
        assert "svc1web" in groups
        # GREATEST clamps the negative write delta for svc2 to 0.
        svc2 = [r for r in result.rows if r[1] == "svc2app"][0]
        assert svc2[-1] == 0.0


class TestListing4ConditioningVariables:
    def test_condition_query(self, paper_db):
        result = paper_db.sql("""
            SELECT
                timestamp, tag['pipeline_name'],
                AVG(value) as input_events
            FROM tsdb
            WHERE
                metric_name = 'pipeline_input_rate' AND
                timestamp BETWEEN 0 and 19
            GROUP BY
                timestamp, tag['pipeline_name']
            ORDER BY timestamp ASC
        """)
        assert len(result) == 40
        assert result.columns[-1] == "input_events"


class TestListing5HypothesisJoin:
    def test_union_plus_full_outer_joins(self, paper_db):
        paper_db.create_temp_table("FF_1", """
            SELECT timestamp, 'net' AS name, AVG(retransmissions) AS v
            FROM flows GROUP BY timestamp
        """)
        paper_db.create_temp_table("FF_2", """
            SELECT timestamp, 'proc' AS name, AVG(stime) AS v
            FROM processes GROUP BY timestamp
        """)
        paper_db.create_temp_table("Target", """
            SELECT timestamp, tag['pipeline_name'] AS pipeline_name,
                   AVG(value) AS runtime_sec
            FROM tsdb WHERE metric_name = 'pipeline_runtime'
            GROUP BY timestamp, tag['pipeline_name']
        """)
        paper_db.create_temp_table("Condition", """
            SELECT timestamp, tag['pipeline_name'] AS pipeline_name,
                   AVG(value) AS input_events
            FROM tsdb WHERE metric_name = 'pipeline_input_rate'
            GROUP BY timestamp, tag['pipeline_name']
        """)
        result = paper_db.sql("""
            SELECT
                Target.timestamp, FF.name, FF.v,
                Target.runtime_sec, Condition.input_events
            FROM
                (SELECT * FROM FF_1 UNION ALL SELECT * FROM FF_2) FF
            FULL OUTER JOIN
                Target ON
                (FF.timestamp = Target.timestamp)
            FULL OUTER JOIN
                Condition ON
                Target.timestamp = Condition.timestamp AND
                Target.pipeline_name = Condition.pipeline_name
            ORDER BY Target.timestamp ASC
        """)
        assert len(result) > 0
        # Every fully-joined row must align target and condition pipelines.
        aligned = [r for r in result.rows
                   if r[3] is not None and r[4] is not None]
        assert aligned, "expected aligned target/condition rows"

    def test_windowing_for_lagged_features(self, paper_db):
        """§3.5 footnote: LAG prepares lagged features for the scorer."""
        result = paper_db.sql("""
            SELECT timestamp, tag['pipeline_name'] AS p, value,
                   LAG(value, 1) OVER
                       (PARTITION BY tag['pipeline_name']
                        ORDER BY timestamp) AS value_lag1
            FROM tsdb
            WHERE metric_name = 'pipeline_runtime'
            ORDER BY p, timestamp
            LIMIT 3
        """)
        assert result.column("value_lag1")[0] is None
        assert result.column("value_lag1")[1] == result.column("value")[0]
