"""Unit tests for PC skeleton discovery."""

import numpy as np
import pytest

from repro.causal import LinearGaussianScm, NoiseSpec
from tests.bench_modules import load_bench_module

pc_skeleton = load_bench_module("pc_baseline.py").pc_skeleton


def _simulate(edges, n=3000, seed=0, noise=0.4):
    scm = LinearGaussianScm()
    nodes = sorted({v for e in edges for v in e})
    for node in nodes:
        scm.add_variable(node, NoiseSpec(std=noise if any(
            e[1] == node for e in edges) else 1.0))
    for cause, effect in edges:
        scm.add_edge(cause, effect, weight=1.0)
    values = scm.simulate(n, seed)
    names = scm.variables()
    data = np.column_stack([values[v] for v in names])
    return data, names


class TestPcSkeleton:
    def test_chain_recovered(self):
        data, names = _simulate([("a", "b"), ("b", "c")])
        edges, separating = pc_skeleton(data, names, alpha=0.01)
        assert frozenset(("a", "b")) in edges
        assert frozenset(("b", "c")) in edges
        assert frozenset(("a", "c")) not in edges
        assert separating[frozenset(("a", "c"))] == ("b",)

    def test_fork_recovered(self):
        data, names = _simulate([("z", "x"), ("z", "y")])
        edges, _ = pc_skeleton(data, names, alpha=0.01)
        assert frozenset(("x", "y")) not in edges
        assert frozenset(("z", "x")) in edges

    def test_independent_variables_no_edges(self, rng):
        data = rng.standard_normal((2000, 4))
        edges, _ = pc_skeleton(data, alpha=0.01)
        assert edges == set()

    def test_collider_keeps_spouse_separation(self):
        data, names = _simulate([("x", "z"), ("y", "z")])
        edges, separating = pc_skeleton(data, names, alpha=0.01)
        assert frozenset(("x", "y")) not in edges
        # x and y separated by the empty set (marginal independence).
        assert separating[frozenset(("x", "y"))] == ()

    def test_bad_names_length(self, rng):
        with pytest.raises(ValueError):
            pc_skeleton(rng.standard_normal((100, 3)), names=["a"])

    def test_1d_data_rejected(self, rng):
        with pytest.raises(ValueError):
            pc_skeleton(rng.standard_normal(100))
