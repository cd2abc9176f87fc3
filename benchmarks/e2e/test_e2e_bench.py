"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Drives ``run.py --smoke`` in subprocesses — the benchmark measures each
workload in a fresh process — and checks the result documents' schema,
that names agree with ``BENCHMARK.json``, that same-seed runs repeat
every count exactly, that another seed changes the generated inputs, and
that nothing (shared-memory segment, scratch directory) outlives a run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=170)


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke_sets(tmp_path_factory) -> dict:
    """Two same-seed sets of all four workloads, plus leftovers seen."""
    out = tmp_path_factory.mktemp("e2e")
    before = shm_names()
    docs = []
    for tag in ("a", "b"):
        path = out / f"{tag}.json"
        proc = run_bench("--seed", "1", "--out", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    return {"a": docs[0], "b": docs[1], "paths": (out / "a.json",
                                                  out / "b.json"),
            "leaked_shm": shm_names() - before,
            "work_left": (HERE / ".work").exists()}


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() \
        <= next(m for m in spec["end_to_end"]
                if m["name"] == "setup_s").items()


def test_documents_match_benchmark_json(spec, smoke_sets):
    doc = smoke_sets["a"]
    assert doc["schema"] == "repro-e2e-bench/1"
    assert {"git_sha", "python", "numpy", "nproc", "thread_env", "server",
            "store"} <= set(doc["environment"])
    assert [r["workload"] for r in doc["runs"]] \
        == [w["name"] for w in spec["workloads"]]
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for run in doc["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert run["metrics"]["failed_share"]["value"] == 0.0
        assert all(NAME.match(name) for name in run["metrics"])
        for name, unit in gated.items():
            assert run["metrics"][name]["unit"] == unit
            assert run["metrics"][name]["value"] > 0
        for m in run["metrics"].values():
            assert UNIT.match(m["unit"]) and m["samples"] >= 1


def test_same_seed_repeats_every_count(smoke_sets):
    for a, b in zip(smoke_sets["a"]["runs"], smoke_sets["b"]["runs"]):
        assert a["counts"] and a["counts"] == b["counts"], a["workload"]
        assert a["input_digest"] == b["input_digest"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         *map(str, smoke_sets["paths"])],
        cwd=REPO, capture_output=True, text=True, timeout=60)
    assert "counts flagged exact: all repeat exactly" in proc.stdout
    assert "explain-cold-wide" in proc.stdout and "verdict" in proc.stdout


def test_driver_line_and_other_seed(spec, smoke_sets):
    """Single-workload form: last stdout line is the driver's JSON."""
    digests = {r["workload"]: r["input_digest"]
               for r in smoke_sets["a"]["runs"]}
    other_path = smoke_sets["paths"][0].with_name("other.json")
    for workload, trace, key in (("explain-cold-wide", "0", "end_to_end"),
                                 ("sql-cold-mix", "1", "per_layer")):
        proc = run_bench("--workload", workload, "--seed", "2",
                         "--seconds", "0", "--trace", trace,
                         "--out", str(other_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert {name: m["unit"] for name, m in line["metrics"].items()} \
            == {m["name"]: m["unit"] for m in spec[key]}
        other = json.loads(other_path.read_text(encoding="utf-8"))
        assert other["input_digest"] != digests[workload]


def test_nothing_outlives_a_run(smoke_sets):
    assert not smoke_sets["leaked_shm"]
    assert not smoke_sets["work_left"]
