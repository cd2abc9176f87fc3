"""Unit tests for the linear-Gaussian SCM simulator."""

import numpy as np
import pytest

from repro.causal import LinearGaussianScm, NoiseSpec
from repro.causal.dag import DagError


class TestNoiseSpec:
    def test_white_noise_statistics(self):
        spec = NoiseSpec(std=2.0, mean=10.0)
        sample = spec.sample(5000, np.random.default_rng(0))
        assert sample.mean() == pytest.approx(10.0, abs=0.2)
        assert sample.std() == pytest.approx(2.0, abs=0.2)

    def test_ar_autocorrelation(self):
        spec = NoiseSpec(std=1.0, ar=0.8)
        s = spec.sample(5000, np.random.default_rng(0))
        lag1 = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert lag1 == pytest.approx(0.8, abs=0.05)

    def test_seasonality(self):
        spec = NoiseSpec(std=0.01, seasonal_period=24,
                         seasonal_amplitude=5.0)
        s = spec.sample(240, np.random.default_rng(0))
        # Peaks every period.
        assert s[6] == pytest.approx(5.0, abs=0.1)   # sin peak at T/4
        assert s[6 + 24] == pytest.approx(5.0, abs=0.1)

    def test_trend(self):
        spec = NoiseSpec(std=0.0, trend=0.5)
        s = spec.sample(10, np.random.default_rng(0))
        assert s[9] - s[0] == pytest.approx(4.5)

    def test_invalid_ar(self):
        with pytest.raises(ValueError):
            NoiseSpec(ar=1.0).sample(10, np.random.default_rng(0))


class TestScmSimulation:
    def test_edge_weight_recovered_by_regression(self):
        scm = LinearGaussianScm()
        scm.add_variable("x", NoiseSpec(std=1.0))
        scm.add_variable("y", NoiseSpec(std=0.1))
        scm.add_edge("x", "y", weight=2.5)
        values = scm.simulate(3000, 0)
        slope = np.polyfit(values["x"], values["y"], 1)[0]
        assert slope == pytest.approx(2.5, abs=0.05)

    def test_lagged_edge(self):
        scm = LinearGaussianScm()
        scm.add_variable("x", NoiseSpec(std=1.0))
        scm.add_variable("y", NoiseSpec(std=0.01))
        scm.add_edge("x", "y", weight=1.0, lag=2)
        values = scm.simulate(500, 1)
        corr_lag2 = np.corrcoef(values["x"][:-2], values["y"][2:])[0, 1]
        corr_lag0 = np.corrcoef(values["x"], values["y"])[0, 1]
        assert corr_lag2 > 0.95
        assert corr_lag2 > corr_lag0

    def test_intervention_clamps_variable(self):
        scm = LinearGaussianScm()
        scm.add_variable("x", NoiseSpec(std=1.0))
        scm.add_variable("y", NoiseSpec(std=0.1))
        scm.add_edge("x", "y", weight=1.0)
        forced = np.full(100, 7.0)
        values = scm.simulate(100, 0, interventions={"x": forced})
        assert np.array_equal(values["x"], forced)
        assert values["y"].mean() == pytest.approx(7.0, abs=0.2)

    def test_intervention_cuts_upstream_influence(self):
        """do(y): y no longer reflects x (§3.1's intervention semantics)."""
        scm = LinearGaussianScm()
        scm.add_variable("x", NoiseSpec(std=1.0))
        scm.add_variable("y", NoiseSpec(std=0.1))
        scm.add_edge("x", "y", weight=5.0)
        # A seed distinct from the simulation's, else the forced series
        # would replay the exact same noise stream as x.
        rng = np.random.default_rng(99)
        forced = rng.standard_normal(2000)
        values = scm.simulate(2000, 0, interventions={"y": forced})
        corr = np.corrcoef(values["x"], values["y"])[0, 1]
        assert abs(corr) < 0.1

    def test_intervention_length_checked(self):
        scm = LinearGaussianScm()
        scm.add_variable("x")
        with pytest.raises(ValueError):
            scm.simulate(100, 0, interventions={"x": np.zeros(50)})

    def test_intervention_unknown_variable(self):
        scm = LinearGaussianScm()
        scm.add_variable("x")
        with pytest.raises(DagError):
            scm.simulate(10, 0, interventions={"zzz": np.zeros(10)})

    def test_transform_applied(self):
        scm = LinearGaussianScm()
        scm.add_variable("x", NoiseSpec(std=5.0))
        scm.set_transform("x", lambda v: np.maximum(v, 0.0))
        values = scm.simulate(500, 0)
        assert values["x"].min() >= 0.0

    def test_simulate_matrix(self):
        scm = LinearGaussianScm()
        scm.add_variable("a")
        scm.add_variable("b")
        matrix, names = scm.simulate_matrix(50, 0)
        assert matrix.shape == (50, 2)
        assert names == ["a", "b"]

    def test_deterministic_under_seed(self):
        scm = LinearGaussianScm()
        scm.add_variable("a", NoiseSpec(std=1.0))
        v1 = scm.simulate(100, 42)["a"]
        v2 = scm.simulate(100, 42)["a"]
        assert np.array_equal(v1, v2)

    def test_faithfulness_to_dag(self):
        """Generated data respects d-separation: chain z->y->x gives
        partial correlation(z, x | y) ~ 0 but corr(z, x) != 0."""
        from tests.bench_modules import load_bench_module
        partial_correlation = load_bench_module(
            "pc_baseline.py").partial_correlation
        scm = LinearGaussianScm()
        scm.add_variable("z", NoiseSpec(std=1.0))
        scm.add_variable("y", NoiseSpec(std=0.3))
        scm.add_variable("x", NoiseSpec(std=0.3))
        scm.add_edge("z", "y", weight=1.0)
        scm.add_edge("y", "x", weight=1.0)
        values = scm.simulate(4000, 0)
        marginal = partial_correlation(values["z"], values["x"])
        partial = partial_correlation(values["z"], values["x"],
                                      values["y"][:, None])
        assert abs(marginal) > 0.5
        assert abs(partial) < 0.1
