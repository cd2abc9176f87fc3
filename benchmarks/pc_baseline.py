"""PC-algorithm skeleton discovery, the classical baseline of §7.

The paper contrasts ExplainIt! with full-structure causal discovery
(PC/SGS, LiNGAM): RCA rarely needs the whole DAG, only the ancestors of
the target.  This implementation of the PC *skeleton* phase — iteratively
removing edges whose endpoints test conditionally independent given
subsets of neighbours — serves as that baseline:
``bench_scalability.py`` shows its cost exploding with variable count
while ExplainIt!'s per-hypothesis ranking stays linear.  It lives beside
that benchmark, its one user; the engine never learns a DAG.

The conditional-independence test rests on partial correlation: for
jointly-Gaussian variables, ``X ⊥ Y | Z`` iff the partial correlation of
X and Y given Z is zero, and Fisher's z-transform gives its null
distribution.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import stats


class IndependenceTestError(Exception):
    """Raised on degenerate inputs (too few samples, singular Z)."""


def partial_correlation(x: np.ndarray, y: np.ndarray,
                        z: np.ndarray | None = None) -> float:
    """Partial correlation of two univariate series given Z columns."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise IndependenceTestError(
            f"length mismatch: {x.size} vs {y.size}"
        )
    if z is not None:
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[:, None]
        if z.shape[1] == 0:
            z = None
    if z is not None:
        design = np.column_stack([np.ones(x.size), z])
        coeffs_x, *_ = np.linalg.lstsq(design, x, rcond=None)
        coeffs_y, *_ = np.linalg.lstsq(design, y, rcond=None)
        x = x - design @ coeffs_x
        y = y - design @ coeffs_y
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx <= 1e-12 or sy <= 1e-12:
        return 0.0
    rho = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
    return float(np.clip(rho, -1.0, 1.0))


def ci_test(x: np.ndarray, y: np.ndarray, z: np.ndarray | None = None,
            alpha: float = 0.05) -> tuple[bool, float]:
    """Fisher-z conditional independence test.

    Returns ``(independent, p_value)`` where ``independent`` is the test
    decision at level ``alpha`` (True = fail to reject independence).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    k = 0
    if z is not None:
        z_arr = np.asarray(z, dtype=np.float64)
        k = 1 if z_arr.ndim == 1 else z_arr.shape[1]
    dof = n - k - 3
    if dof <= 0:
        raise IndependenceTestError(
            f"not enough samples (n={n}) for conditioning set of size {k}"
        )
    rho = partial_correlation(x, y, z)
    rho = float(np.clip(rho, -1 + 1e-12, 1 - 1e-12))
    z_stat = 0.5 * math.log((1 + rho) / (1 - rho)) * math.sqrt(dof)
    p_value = 2.0 * (1.0 - stats.norm.cdf(abs(z_stat)))
    return p_value > alpha, float(p_value)


def pc_skeleton(data: np.ndarray, names: list[str] | None = None,
                alpha: float = 0.05, max_conditioning: int = 2
                ) -> tuple[set[frozenset], dict]:
    """Learn the undirected skeleton from a (T, n_vars) data matrix.

    Returns ``(edges, separating_sets)``: the surviving undirected edges
    as frozensets of names, and for each removed pair the conditioning
    set that separated it.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D data matrix, got {data.shape}")
    n_vars = data.shape[1]
    if names is None:
        names = [f"v{i}" for i in range(n_vars)]
    if len(names) != n_vars:
        raise ValueError(
            f"{len(names)} names for {n_vars} columns"
        )
    index = {name: i for i, name in enumerate(names)}
    adjacency: dict[str, set[str]] = {
        name: set(names) - {name} for name in names
    }
    separating: dict[frozenset, tuple[str, ...]] = {}

    for level in range(max_conditioning + 1):
        removed_any = False
        for x_name in list(names):
            for y_name in sorted(adjacency[x_name]):
                neighbours = adjacency[x_name] - {y_name}
                if len(neighbours) < level:
                    continue
                for subset in itertools.combinations(sorted(neighbours),
                                                     level):
                    z = (data[:, [index[s] for s in subset]]
                         if subset else None)
                    independent, _ = ci_test(
                        data[:, index[x_name]], data[:, index[y_name]],
                        z, alpha=alpha,
                    )
                    if independent:
                        adjacency[x_name].discard(y_name)
                        adjacency[y_name].discard(x_name)
                        separating[frozenset((x_name, y_name))] = subset
                        removed_any = True
                        break
        if not removed_any and level > 0:
            break

    edges = {
        frozenset((x_name, y_name))
        for x_name in names
        for y_name in adjacency[x_name]
    }
    return edges, separating
