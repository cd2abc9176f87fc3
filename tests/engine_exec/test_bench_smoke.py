"""Smoke test: the Figure 10 backend benchmark emits well-formed rows.

Loads ``benchmarks/bench_figure10_score_time.py`` by path (the benchmark
tree is not an importable package) and runs its backend comparison on a
tiny workload, checking that the script's own per-hypothesis baseline
loop and both executor backends produce complete, sane timing rows.
"""

import importlib.util
import math
import pathlib

BENCH_PATH = (pathlib.Path(__file__).resolve().parents[2]
              / "benchmarks" / "bench_figure10_score_time.py")


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_figure10_score_time_smoke", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backend_rows_well_formed():
    bench = _load_bench_module()
    hypotheses = bench.synthetic_hypotheses(n_families=8, n_samples=60)
    rows = bench.backend_timing_rows(
        hypotheses, scorer="L2",
        backends=(bench.SCORE_LOOP, None, "process"), n_workers=2)
    assert [row["backend"] for row in rows] == [
        "score-loop", "in-process", "process"]
    for row in rows:
        assert set(row) == set(bench.BACKEND_ROW_FIELDS)
        assert row["scorer"] == "L2"
        assert row["n_hypotheses"] == 8
        assert row["n_workers"] == (1 if row["backend"] == "score-loop"
                                    else 2)
        for key in ("wall_seconds", "mean_seconds_per_family",
                    "max_seconds_per_family"):
            assert isinstance(row[key], float)
            assert math.isfinite(row[key])
            assert row[key] > 0.0
        assert (row["max_seconds_per_family"]
                >= row["mean_seconds_per_family"])
    by_backend = {row["backend"]: row for row in rows}
    # Loop and pool timings are individually measured; in-process ones
    # are equal shares of the stacked call and flagged as such.
    assert by_backend["score-loop"]["share_attributed"] is False
    assert by_backend["process"]["share_attributed"] is False
    assert by_backend["in-process"]["share_attributed"] is True
    rendered = bench.format_backend_rows(rows)
    assert "score-loop" in rendered and "in-process" in rendered
    assert "attributed" in rendered


def test_transfer_rows_well_formed():
    bench = _load_bench_module()
    hypotheses = bench.synthetic_hypotheses(n_families=8, n_samples=60)
    rows = bench.serialization_overhead_rows(hypotheses, scorer="CorrMax",
                                             n_workers=2)
    assert [row["transfer"] for row in rows] == ["pickle", "shm"]
    for row in rows:
        assert set(row) == set(bench.TRANSFER_ROW_FIELDS)
        assert row["scorer"] == "CorrMax"
        assert row["n_hypotheses"] == 8
        assert row["bytes_moved"] > 0
        assert 0.0 <= row["serialization_share"] <= 1.0
    by_transfer = {row["transfer"]: row for row in rows}
    assert (by_transfer["shm"]["bytes_moved"]
            < by_transfer["pickle"]["bytes_moved"])
    # The script's pickle round trip pays the payload (8 hypotheses of
    # a 60x3 X and a 60x1 Y) plus the pickle frame, in measurable time,
    # and is set against the shm run's own scoring time.
    assert by_transfer["pickle"]["bytes_moved"] > 8 * (60 * 3 + 60) * 8
    assert by_transfer["pickle"]["serialize_seconds"] > 0.0
    assert (by_transfer["pickle"]["score_seconds"]
            == by_transfer["shm"]["score_seconds"])
    rendered = bench.format_transfer_rows(rows)
    assert "pickle" in rendered and "shm" in rendered


def test_synthetic_workload_shape():
    bench = _load_bench_module()
    hypotheses = bench.synthetic_hypotheses(n_families=5, n_samples=40,
                                            n_features=2)
    assert len(hypotheses) == 5
    assert all(h.y.name == "target" for h in hypotheses)
    assert all(h.x.n_features == 2 for h in hypotheses)
    assert all(h.y is hypotheses[0].y for h in hypotheses)
