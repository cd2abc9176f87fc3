"""Compare two result documents: ``compare.py A.json B.json``.

Each document is what ``run.py --out`` wrote (one run, or a set of runs).
For every end-to-end metric x workload the row shows both medians with
their quartiles, the ratio B/A with A as its base, and a verdict:

- ``regressed``  — B's median is worse than A's by more than the bound;
- ``unresolved`` — not regressed, but the run-to-run spread (quartile
  distance over median, on either side) is wider than the bound, so
  "unchanged" cannot be claimed;
- ``ok``         — otherwise.

Bounds come from ``BENCHMARK.json`` for the metrics it gates and from
``harness.NAMED`` for the issue's workload-specific names; a name in
``harness.DEMOTED`` is marked ``(diagnostic)`` and does not set the exit
status.  Counts flagged exact must repeat exactly
between runs of the same workload and seed.  Exit status: 1 if anything
regressed, else 2 if anything is unresolved, else 0.
"""

from __future__ import annotations

import json
import sys

import harness


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    runs = doc["runs"] if "runs" in doc else [doc]
    return [run for run in runs if not run["trace"]]


def bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound)."""
    table = dict(harness.NAMED)
    for entry in harness.benchmark_spec()["end_to_end"]:
        table[entry["name"]] = (entry["better"], entry["bound"])
    return table


def samples(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    grouped: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, m in run["metrics"].items():
            grouped.setdefault((run["workload"], name), []).append(m["value"])
    return grouped


def verdict(a: list[float], b: list[float], better: str, bound: float
            ) -> tuple[str, float, float]:
    """(verdict, ratio B/A, widest spread) for one metric x workload."""
    qa, qb = harness.quartiles(a), harness.quartiles(b)
    base = qa[1]
    ratio = qb[1] / base if base else float("nan")
    change = (qb[1] - base) / base if base else float(qb[1] > base)
    worse = change if better == "lower" else -change
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if worse > bound:
        return "regressed", ratio, spread
    if spread > bound:
        return "unresolved", ratio, spread
    return "ok", ratio, spread


def count_mismatches(a_runs: list[dict], b_runs: list[dict]) -> list[str]:
    """Exact-flagged counts that differ between same-seed runs."""
    b_by_key = {(r["workload"], r["seed"], r["smoke"]): r for r in b_runs}
    problems = []
    for run in a_runs:
        other = b_by_key.get((run["workload"], run["seed"], run["smoke"]))
        if other is None:
            continue
        names = harness.EXACT_COUNTS[run["workload"]]
        if run["smoke"]:
            names = sorted(run["counts"])     # fixed op counts: all exact
        for name in names:
            if run["counts"].get(name) != other["counts"].get(name):
                problems.append(
                    f"{run['workload']} seed {run['seed']} {name}: "
                    f"{run['counts'].get(name)} != "
                    f"{other['counts'].get(name)}")
        if run["input_digest"] != other["input_digest"]:
            problems.append(f"{run['workload']} seed {run['seed']}: "
                            f"generated inputs differ")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 64
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    a, b = samples(a_runs), samples(b_runs)
    table = bounds()
    status = 0
    print(f"{'workload':<18} {'metric':<20} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'B/A':>7} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload in harness.WORKLOADS:
        for (wl, name), a_values in sorted(a.items()):
            if wl != workload or (wl, name) not in b or name not in table:
                continue
            better, bound = table[name]
            result, ratio, spread = verdict(a_values, b[(wl, name)],
                                            better, bound)
            qa = harness.quartiles(a_values)
            qb = harness.quartiles(b[(wl, name)])
            gating = name not in harness.DEMOTED
            print(f"{wl:<18} {name:<20} "
                  f"{f'{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]':<36} "
                  f"{f'{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]':<36} "
                  f"{ratio:>7.3f} {spread:>7.3f} {bound:>6.2f}  {result}"
                  + ("" if gating else " (diagnostic)"))
            if not gating:
                continue
            if result == "regressed":
                status = 1
            elif result == "unresolved" and status == 0:
                status = 2
    problems = count_mismatches(a_runs, b_runs)
    for problem in problems:
        print(f"count mismatch: {problem}")
    if problems:
        status = 1
    else:
        print("counts flagged exact: all repeat exactly")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
