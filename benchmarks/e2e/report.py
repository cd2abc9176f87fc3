"""Markdown tables for the README, from committed result documents.

    python3 benchmarks/e2e/report.py baseline baselines/a.json
    python3 benchmarks/e2e/report.py profile baselines/traced.json
"""

from __future__ import annotations

import json
import sys

import harness
from compare import load_runs, samples


def baseline(path: str) -> None:
    """Median [q1, q3] and spread of every end-to-end metric x workload."""
    grouped = samples(load_runs(path))
    print("| workload | metric | median | [q1, q3] | spread | runs |")
    print("|---|---|---|---|---|---|")
    for workload in harness.WORKLOADS:
        for (wl, name), values in sorted(grouped.items()):
            if wl != workload:
                continue
            q1, q2, q3 = harness.quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            print(f"| `{wl}` | `{name}` | {q2:.5g} | [{q1:.5g}, {q3:.5g}] "
                  f"| {spread:.3f} | {len(values)} |")


def profile(path: str) -> None:
    """Per-layer self time per unit operation, one column per workload."""
    with open(path, encoding="utf-8") as handle:
        runs = {run["workload"]: run["metrics"]
                for run in json.load(handle)["runs"] if run["trace"]}
    names = [m["name"] for m in harness.benchmark_spec()["per_layer"]]
    print("| per-layer metric | unit | "
          + " | ".join(f"`{w}`" for w in harness.WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(harness.WORKLOADS))
    for name in names:
        cells = [f"{runs[w][name]['value']:.4g}" for w in harness.WORKLOADS]
        unit = runs[harness.WORKLOADS[0]][name]["unit"]
        print(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("baseline", "profile"):
        sys.exit(__doc__)
    {"baseline": baseline, "profile": profile}[sys.argv[1]](sys.argv[2])
