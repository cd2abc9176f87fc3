"""Causal Bayesian-network substrate (§3.1's model for hypotheses).

ExplainIt! views every metric as a node in an unknown causal Bayesian
network and scores hypotheses that probe its structure.  This package
provides the machinery the reproduction needs around that model:

- :mod:`repro.causal.dag` — :class:`~repro.causal.dag.CausalDag`: a DAG
  over named variables with d-separation queries (the graphical criterion
  behind chains, forks and colliders).
- :mod:`repro.causal.scm` — linear-Gaussian structural causal models that
  *generate* time series from a DAG, including interventions (``do()``)
  — the ground truth generator for every synthetic scenario.

The PC skeleton baseline of §7 lives beside ``bench_scalability.py``
(``benchmarks/pc_baseline.py``): the engine never learns a DAG.
"""

from repro.causal.dag import CausalDag
from repro.causal.scm import LinearGaussianScm, NoiseSpec

__all__ = [
    "CausalDag",
    "LinearGaussianScm",
    "NoiseSpec",
]
