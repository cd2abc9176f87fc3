"""The frozen benchmark's calls into ``src/`` that tier-1 otherwise skips.

``benchmarks/e2e/test_e2e_bench.py`` traces only ``sql-cold-mix``, so the
traced halves of the two ranking workloads never run in the suite:
``wl_explain.replay_explain``'s ``rank_families(hyps, scorer=...,
top_k=..., backend=None, n_workers=2, transfer="shm")`` and
``plan_batches(hyps)``, and ``wl_dashboard``'s ``submit_explain(target,
search=..., kind="drill_down")``.  Those signatures are a contract the
benchmark holds ``src/`` to; this runs them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
RUN = REPO / "benchmarks" / "e2e" / "run.py"


@pytest.mark.parametrize("workload", ["explain-cold-wide",
                                      "dashboard-ingest"])
def test_traced_smoke_run_succeeds(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--smoke", "--seconds", "0", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["hypotheses"]["value"] > 0
