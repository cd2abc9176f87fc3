"""Tests for the §5 case-study scenarios (structure + ranking behaviour)."""

import numpy as np
import pytest

from repro.workloads.scenarios import (
    conditioning_scenario,
    conditioning_scenario_fixed,
    fault_injection_scenario,
    periodic_namenode_scenario,
    raid_intervention_experiment,
    sawtooth_temperature_scenario,
    weekly_raid_scenario,
)


class TestFaultInjectionScenario:
    """§5.1 / Table 3."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return fault_injection_scenario(seed=0)

    def test_labels(self, scenario):
        assert "tcp_retransmits" in scenario.causes
        assert "pipeline_latency" in scenario.effects

    def test_retransmits_in_top_ranks(self, scenario):
        table = scenario.session().explain(scorer="CorrMax")
        rank = table.rank_of("tcp_retransmits")
        assert rank is not None and rank <= 6

    def test_l1_top_five(self, scenario):
        """The Lasso ranking of Table 3's families, pinned to the order
        the row-space coordinate descent gave before L1 was stacked."""
        table = scenario.session().explain(scorer="L1")
        assert [r.family for r in table.results[:5]] == [
            "pipeline_latency", "hdfs_save_time", "pipeline_input_rate",
            "namenode_rpc_rate", "disk_write_latency"]

    def test_runtime_spike_visible(self, scenario):
        """Figure 5's shape: the fault window dominates the runtime."""
        start, end = scenario.fault_window
        sess = scenario.session()
        sess.set_time_ranges(0, 288, explain_start=start, explain_end=end)
        assert sess.event_lift("pipeline_runtime") > 2.0


class TestConditioningScenario:
    """§5.2: conditioning on input size exposes the network issue."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return conditioning_scenario(seed=0)

    def test_unconditioned_is_load_dominated(self, scenario):
        sess = scenario.session()
        sess.set_condition(None)
        table = sess.explain(scorer="L2")
        assert table.results[0].family in ("pipeline_input_rate",
                                           "hdfs_save_time",
                                           "namenode_rpc_rate")

    def test_conditioning_elevates_network_families(self, scenario):
        sess = scenario.session()
        sess.set_condition(None)
        raw = sess.explain(scorer="L2")
        sess.set_condition("pipeline_input_rate")
        conditioned = sess.explain(scorer="L2")
        raw_rank = raw.rank_of("tcp_retransmits")
        cond_rank = conditioned.rank_of("tcp_retransmits")
        assert cond_rank is not None
        assert cond_rank < raw_rank
        assert cond_rank <= 6

    def test_fix_removes_retransmit_signal(self, scenario):
        """§5.2's post-fix re-analysis: retransmissions no longer rank."""
        fixed = conditioning_scenario_fixed(seed=0)
        sess = fixed.session()
        sess.set_condition("pipeline_input_rate")
        table = sess.explain(scorer="L2")
        score = table.score_of("tcp_retransmits")
        assert score is not None and score < 0.1


class TestPeriodicNamenodeScenario:
    """§5.3 / Table 4."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return periodic_namenode_scenario(seed=0)

    def test_namenode_families_rank_high(self, scenario):
        table = scenario.session().explain(scorer="CorrMax")
        namenode_ranks = [table.rank_of(f) for f in
                          ("namenode_rpc_rate", "namenode_rpc_latency",
                           "namenode_live_threads")]
        assert min(r for r in namenode_ranks if r is not None) <= 6

    def test_gc_time_negatively_correlated(self, scenario):
        """The paper's clue: smaller GC during high runtime."""
        store = scenario.store
        from repro.tsdb import SeriesId
        _, runtime = store.arrays(SeriesId.make(
            "pipeline_runtime", {"pipeline_name": "pipeline-1"}))
        _, gc = store.arrays(SeriesId.make(
            "namenode_gc_time", {"host": "namenode-1"}))
        assert np.corrcoef(runtime, gc)[0, 1] < -0.1

    def test_spike_periodicity(self, scenario):
        """Figure 7: spikes every 15 samples."""
        from repro.core.pseudocause import estimate_period
        from repro.tsdb import SeriesId
        _, runtime = scenario.store.arrays(SeriesId.make(
            "pipeline_runtime", {"pipeline_name": "pipeline-1"}))
        period = estimate_period(runtime - runtime.mean(), max_period=60,
                                 min_period=5)
        assert period in range(13, 18)


class TestWeeklyRaidScenario:
    """§5.4 / Table 5 / Figure 8."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return weekly_raid_scenario(seed=0)

    def test_weekly_period_in_runtime(self, scenario):
        """Figure 8: the *spike indicator* has a one-week period (the
        raw ACF is dominated by the diurnal cycle, which is exactly why
        the paper needed a month-long range to see the pattern)."""
        from repro.core.pseudocause import estimate_period
        from repro.tsdb import SeriesId
        _, runtime = scenario.store.arrays(SeriesId.make(
            "pipeline_runtime", {"pipeline_name": "pipeline-1"}))
        period = scenario.extra["period"]
        spikes = (runtime > runtime.mean()
                  + 1.5 * runtime.std()).astype(float)
        estimated = estimate_period(spikes - spikes.mean(),
                                    max_period=period + 30,
                                    min_period=period // 2 + 1)
        assert abs(estimated - period) <= 3

    def test_disk_families_and_raid_sensor_rank(self, scenario):
        table = scenario.session().explain(scorer="CorrMax")
        disk_ranks = [table.rank_of(f) for f in
                      ("disk_io", "disk_write_latency",
                       "raid_temperature", "load_avg")]
        assert min(r for r in disk_ranks if r is not None) <= 7

    def test_raid_temperature_is_cause_label(self, scenario):
        assert "raid_temperature" in scenario.causes


class TestRaidInterventionExperiment:
    """Figure 9: runtime instability tracks the capacity knob."""

    def test_segments_ordered_by_capacity(self):
        scenario = raid_intervention_experiment(seed=0)
        from repro.tsdb import SeriesId
        _, runtime = scenario.store.arrays(SeriesId.make(
            "pipeline_runtime", {"pipeline_name": "pipeline-1"}))
        quarter = scenario.extra["segments"]
        seg_default = runtime[:quarter].mean()
        seg_off = runtime[quarter:2 * quarter].mean()
        seg_low = runtime[3 * quarter:].mean()
        assert seg_default > seg_off + 2.0
        assert seg_default > seg_low
        assert seg_low < seg_off + 3.0       # 5% cap is nearly as good


class TestSawtoothScenario:
    """Figure 14: a high score that does not explain the event."""

    def test_temperature_scores_high_but_misses_spike(self):
        scenario = sawtooth_temperature_scenario(seed=0)
        sess = scenario.session()
        table = sess.explain(scorer="L2")
        temp_score = table.score_of("cpu_temperature")
        disk_score = table.score_of("disk_write_latency")
        assert temp_score > 0.3          # sawtooth is well explained...
        spike_lo, spike_hi = scenario.fault_window
        sess.set_time_ranges(0, 400, explain_start=spike_lo,
                             explain_end=spike_hi)
        # ...but the event window is anomalous only in disk latency.
        assert sess.event_lift("disk_write_latency") > \
            sess.event_lift("cpu_temperature")
        assert disk_score > 0.0
