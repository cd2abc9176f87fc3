"""Figure 10: score-time distributions per scorer, plus batching timings.

The paper plots the mean and max score time per feature family for the
five scorers across the 11 scenarios, finding joint methods within 2-3x
of the univariate ones on average (1.5x for max).  We reproduce the
measurement on the incident suite and print the density summary.

The batching comparison measures the same workload two ways: a plain
loop of one ``scorer.score`` call per hypothesis, written here as the
baseline (the library itself no longer scores that way), and
``execute_batches``, which groups hypotheses by shared (Y, Z) and scores
each group in stacked numpy calls.  The interactive budget of Figure 10
is exactly what batching buys back: on 500+ hypotheses the batched path
must be at least 2x faster than the per-hypothesis loop while producing
bitwise-identical scores.

The transfer comparison reruns the §6.2 serialisation measurement for
two ways of moving matrices to a scoring kernel: ``pickle``, the paper's
per-hypothesis serialisation, timed here as a dumps/loads of every
hypothesis's (X, Y, Z), and ``group-once``, which copies each
``plan_batches`` group's Y/Z and X matrices once into one buffer.  Both
are set against the batched path's own scoring time.  On 500 hypotheses
the group-once serialisation share must be at least 2x below the pickle
share.
"""

import pickle
import time

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.engine_exec import (
    SerializationAccounting,
    execute_batches,
    plan_batches,
)
from repro.evalkit import evaluate_scorers, timing_summary
from repro.scoring import get_scorer

SCORERS = ("CorrMean", "CorrMax", "L2", "L2-P50", "L2-P500")

#: ``backend`` label of the baseline row: one ``scorer.score`` call per
#: hypothesis in a loop written in this script.
SCORE_LOOP = "score-loop"

#: ``backend`` label of the ``execute_batches`` row.
IN_PROCESS = "in-process"

#: Columns of one backend timing row; the smoke test checks this schema.
BACKEND_ROW_FIELDS = ("backend", "scorer", "n_hypotheses",
                      "wall_seconds", "mean_seconds_per_family",
                      "max_seconds_per_family", "share_attributed")

#: Columns of one transfer overhead row; the smoke test checks this too.
TRANSFER_ROW_FIELDS = ("transfer", "scorer", "n_hypotheses",
                       "bytes_moved", "serialize_seconds", "score_seconds",
                       "serialization_share")


def synthetic_hypotheses(n_families: int = 500, n_samples: int = 150,
                         n_features: int = 3, seed: int = 0):
    """A single-target workload with ``n_families`` candidate families."""
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i in range(n_families):
        coupling = 1.0 if i % 50 == 0 else 0.0
        data = (coupling * target[:, None]
                + rng.standard_normal((n_samples, n_features)))
        fams.append(FeatureFamily(
            f"fam_{i}", data,
            [f"fam_{i}:{j}" for j in range(n_features)], grid))
    return generate_hypotheses(FamilySet(fams), "target")


def _row(backend, scorer, n_hypotheses, wall, seconds, attributed) -> dict:
    return {
        "backend": backend,
        "scorer": scorer,
        "n_hypotheses": n_hypotheses,
        "wall_seconds": wall,
        "mean_seconds_per_family": float(np.mean(seconds)),
        "max_seconds_per_family": float(np.max(seconds)),
        "share_attributed": attributed,
    }


def backend_timing_rows(hypotheses, scorer="L2") -> list[dict]:
    """The score-loop row, then the ``execute_batches`` row.

    ``share_attributed`` marks rows whose per-family times are equal
    shares of a stacked call (batched scoring) rather than individual
    measurements — their max/fam collapses toward the mean and should
    not be read as a true per-family max.
    """
    scorer = get_scorer(scorer)
    seconds = []
    wall_start = time.perf_counter()
    for hypothesis in hypotheses:
        start = time.perf_counter()
        scorer.score(*hypothesis.matrices())
        seconds.append(time.perf_counter() - start)
    wall = time.perf_counter() - wall_start
    rows = [_row(SCORE_LOOP, scorer.name, len(hypotheses), wall, seconds,
                 False)]
    wall_start = time.perf_counter()
    _, seconds, attributed = execute_batches(hypotheses, scorer)
    wall = time.perf_counter() - wall_start
    rows.append(_row(IN_PROCESS, scorer.name, len(hypotheses), wall,
                     seconds, bool(attributed.any())))
    return rows


def format_backend_rows(rows) -> str:
    header = (f"{'Backend':<12}{'Scorer':<10}{'#Hyp':>7}"
              f"{'wall(s)':>10}{'mean/fam':>12}{'max/fam':>12}  note")
    lines = [header, "-" * len(header)]
    for row in rows:
        note = "attributed" if row["share_attributed"] else "measured"
        lines.append(
            f"{row['backend']:<12}{row['scorer']:<10}"
            f"{row['n_hypotheses']:>7}"
            f"{row['wall_seconds']:>10.4f}"
            f"{row['mean_seconds_per_family']:>12.6f}"
            f"{row['max_seconds_per_family']:>12.6f}  {note}"
        )
    return "\n".join(lines)


def pickle_accounting(hypotheses) -> SerializationAccounting:
    """The paper's per-hypothesis transfer, which the library does not pay.

    One ``pickle.dumps``/``loads`` of each hypothesis's (X, Y, Z), timed
    and byte-counted in this process.  Scoring work does not depend on
    how the matrices arrived, so the caller supplies ``score_seconds``
    from a run that scored the same hypotheses.
    """
    accounting = SerializationAccounting()
    for hypothesis in hypotheses:
        start = time.perf_counter()
        for matrix in hypothesis.matrices():
            if matrix is None:
                continue
            payload = pickle.dumps(np.ascontiguousarray(matrix,
                                                        dtype=np.float64),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            accounting.bytes_moved += len(payload)
            pickle.loads(payload)
        accounting.serialize_seconds += time.perf_counter() - start
        accounting.calls += 1
    return accounting


def group_once_accounting(hypotheses) -> SerializationAccounting:
    """Each ``plan_batches`` group's matrices copied once into one buffer.

    Y (and Z) enter the buffer once per group, followed by the group's X
    blocks: a transfer that pays per group, not per hypothesis.  Timed
    and byte-counted like :func:`pickle_accounting`.
    """
    accounting = SerializationAccounting()
    for batch in plan_batches(hypotheses):
        start = time.perf_counter()
        matrices = [batch.y.matrix]
        if batch.z is not None:
            matrices.append(batch.z.matrix)
        matrices.extend(h.x.matrix for h in batch.hypotheses)
        buffer = np.empty(sum(m.size for m in matrices))
        offset = 0
        for matrix in matrices:
            buffer[offset:offset + matrix.size] = matrix.reshape(-1)
            offset += matrix.size
        accounting.serialize_seconds += time.perf_counter() - start
        accounting.bytes_moved += buffer.nbytes
        accounting.calls += 1
    return accounting


def serialization_overhead_rows(hypotheses, scorer="CorrMax") -> list[dict]:
    """§6.2 reproduced per transfer: a ``pickle`` row, then ``group-once``.

    Both rows carry the score seconds of one ``execute_batches`` run over
    the same hypotheses.
    """
    scorer = get_scorer(scorer)
    _, seconds, _ = execute_batches(hypotheses, scorer)
    rows = []
    for transfer, accounting in (
            ("pickle", pickle_accounting(hypotheses)),
            ("group-once", group_once_accounting(hypotheses))):
        accounting.score_seconds = float(np.sum(seconds))
        summary = accounting.summary()
        rows.append({
            "transfer": transfer,
            "scorer": scorer.name,
            "n_hypotheses": len(hypotheses),
            "bytes_moved": summary["bytes_moved"],
            "serialize_seconds": summary["serialize_seconds"],
            "score_seconds": summary["score_seconds"],
            "serialization_share": summary["serialization_share"],
        })
    return rows


def format_transfer_rows(rows) -> str:
    header = (f"{'Transfer':<12}{'Scorer':<10}{'#Hyp':>7}"
              f"{'MB moved':>10}{'ser(s)':>10}{'score(s)':>10}{'share':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['transfer']:<12}{row['scorer']:<10}"
            f"{row['n_hypotheses']:>7}"
            f"{row['bytes_moved'] / 1e6:>10.2f}"
            f"{row['serialize_seconds']:>10.4f}"
            f"{row['score_seconds']:>10.4f}"
            f"{row['serialization_share']:>8.3f}"
        )
    return "\n".join(lines)


def test_batched_backend_speedup():
    """Stacked scoring is >=2x faster than the per-hypothesis loop."""
    hypotheses = synthetic_hypotheses(n_families=500)
    # Warm up BLAS so neither row pays one-time costs.
    warmup = hypotheses[:8]
    backend_timing_rows(warmup, scorer="L2")
    rows = backend_timing_rows(hypotheses, scorer="L2")
    print()
    print("=" * 76)
    print("Figure 10 companion — scoring paths on 500 hypotheses")
    print("=" * 76)
    print(format_backend_rows(rows))
    by_backend = {row["backend"]: row for row in rows}
    speedup = (by_backend[SCORE_LOOP]["wall_seconds"]
               / by_backend[IN_PROCESS]["wall_seconds"])
    print(f"in-process speedup over the score loop: {speedup:.1f}x")
    assert speedup >= 2.0


def test_group_once_transfer_cuts_serialization_share():
    """§6.2 fixed: the group-once share is >=2x below pickle on 500
    hypotheses."""
    hypotheses = synthetic_hypotheses(n_families=500)
    serialization_overhead_rows(hypotheses[:8])      # warm-up
    rows = serialization_overhead_rows(hypotheses)
    print()
    print("=" * 76)
    print("Figure 12/13 companion — transfer overhead on 500 hypotheses")
    print("=" * 76)
    print(format_transfer_rows(rows))
    by_transfer = {row["transfer"]: row for row in rows}
    ratio = (by_transfer["pickle"]["serialization_share"]
             / by_transfer["group-once"]["serialization_share"])
    print(f"pickle/group-once serialization-share ratio: {ratio:.1f}x")
    assert by_transfer["group-once"]["bytes_moved"] \
        < by_transfer["pickle"]["bytes_moved"]
    assert ratio >= 2.0


@pytest.fixture(scope="module")
def evaluation(incidents):
    return evaluate_scorers(incidents, scorers=SCORERS)


def test_figure10_report(evaluation, benchmark):
    timings = benchmark.pedantic(timing_summary, args=(evaluation,),
                                 rounds=1, iterations=1)
    print()
    print("=" * 76)
    print("Figure 10 — score time per feature family (seconds)")
    print("=" * 76)
    header = (f"{'Scorer':<10}{'mean':>12}{'max':>12}"
              f"{'scenario-mean':>16}{'scenario-max':>15}")
    print(header)
    print("-" * len(header))
    for scorer in SCORERS:
        stats = timings[scorer]
        print(f"{scorer:<10}{stats['mean_seconds_per_family']:>12.5f}"
              f"{stats['max_seconds_per_family']:>12.5f}"
              f"{stats['mean_of_scenario_means']:>16.5f}"
              f"{stats['mean_of_scenario_maxes']:>15.5f}")


def test_joint_within_small_factor_of_univariate(evaluation, benchmark):
    """§6.2: multivariate runtimes within a few x of the simple scorer."""
    timings = benchmark.pedantic(timing_summary, args=(evaluation,),
                                 rounds=1, iterations=1)
    univariate = timings["CorrMax"]["mean_seconds_per_family"]
    joint = timings["L2-P50"]["mean_seconds_per_family"]
    assert joint < 100 * univariate   # same order of magnitude territory
    assert joint > univariate         # but not free


def test_projection_cheaper_than_full_joint_on_wide_families(incidents,
                                                             benchmark):
    """L2-P50 saves time exactly on the wide families it projects."""
    import time
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.scoring import get_scorer
    wide = next(i for i in incidents
                if any(f.n_features >= 100 for f in i.families))
    family = next(f for f in wide.families if f.n_features >= 100)
    y = wide.families[wide.target].matrix
    timing = {}
    for name in ("L2", "L2-P50"):
        scorer = get_scorer(name)
        scorer.score(family.matrix, y)            # warm-up
        start = time.perf_counter()
        scorer.score(family.matrix, y)
        timing[name] = time.perf_counter() - start
    print(f"\n[Figure 10 detail] wide family ({family.n_features}f): "
          f"L2 {timing['L2'] * 1e3:.1f}ms vs "
          f"L2-P50 {timing['L2-P50'] * 1e3:.1f}ms")
    # Projection adds 3 projected regressions; it should still not be
    # dramatically slower, and for very wide families it usually wins.
    assert timing["L2-P50"] < timing["L2"] * 3.0
