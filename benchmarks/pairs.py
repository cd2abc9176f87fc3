"""Paired parent/change runs of the end-to-end benchmark, as BENCH_<n>.json.

    python3 benchmarks/pairs.py --parent REV --out BENCH_26.json \\
        [--workloads W ...] [--pairs 10] [--first-seed 3] [--seconds 15] \\
        [--claim sql-cold-mix:op_ms:0.20]
    python3 benchmarks/pairs.py --smoke

The parent commit is exported with ``git archive`` into a temporary
directory; the change is the tree this script sits in (``--change REV``
exports a commit instead).  Pair k runs seed ``first_seed + k`` on both
sides, the parent first when k is even, each run a fresh
``benchmarks/e2e/run.py`` process in its own tree.  Every run records
the gated metrics, its CPU seconds (``RUSAGE_CHILDREN`` delta; host speed
drift cancels inside a pair) and its exact counts.  An exact count
(``EXACT_COUNTS``, plus the input digest) that differs between the
parent's and the change's run of one seed fails the script after the
document is written.

The document is ``repro-bench-pairs/1``: per workload and metric the
median and inclusive quartiles of each side, ``ratio`` (change / parent
median), ``change_wins`` (pairs the change won, ties for neither),
``parent_spread`` ((q3 - q1) / median of the parent) and the raw runs.
Each workload also carries its runs' ungated ``diagnostics`` (the
per-statement ``stmt_*_ms`` of ``sql-cold-mix``, for one) as a per-side
median.  ``--claim W:M:F`` checks that metric M of workload W fell by
at least the fraction F, in at least 9 of 10 pairs, by more than the
parent's interquartile distance.

``--smoke`` runs one pair per workload at the smoke sizes, HEAD against
this tree, and writes nothing unless ``--out`` is given: it checks the
machinery, not a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SCHEMA = "repro-bench-pairs/1"
#: Counts fixed by the seed alone, whatever the run length or host speed.
EXACT_COUNTS = ("series", "points", "planted", "points_at_start",
                "hypotheses_per_op", "wal_records")


def export(rev: str, dest: Path) -> Path:
    """The committed file set of ``rev``, unpacked at ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                   check=True)
    return dest


def child_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path, workload: str, seed: int, args, out: Path) -> dict:
    """One fresh benchmark process; its metrics, CPU time and counts."""
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    before = child_cpu_seconds()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    cpu = child_cpu_seconds() - before
    if not out.exists():
        raise RuntimeError(f"{workload} seed {seed} in {tree} wrote no "
                           f"result:\n{proc.stderr[-2000:]}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    counts = dict(doc["counts"], input_digest=doc["input_digest"])
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "cpu_s": cpu,
            "metrics": {name: doc["metrics"][name]["value"]
                        for name in doc["gated"]},
            "diagnostics": {name: (entry["unit"], entry["value"])
                            for name, entry in doc["diagnostics"].items()
                            if isinstance(entry, dict)
                            and isinstance(entry["value"], (int, float))},
            "exact": {key: sorted(set(value)) if isinstance(value, list)
                      else value for key, value in counts.items()
                      if key in EXACT_COUNTS + ("input_digest",)}}


def summary(parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and spread of one metric's paired runs."""
    def side(runs):
        q1, median, q3 = (statistics.quantiles(runs, n=4,
                                               method="inclusive")
                          if len(runs) > 1 else (runs[0],) * 3)
        return {"median": median, "q1": q1, "q3": q3}
    p, c = side(parent), side(change)
    return {"parent": p, "change": c, "ratio": c["median"] / p["median"],
            "change_wins": sum(b < a for a, b in zip(parent, change)),
            "parent_spread": (p["q3"] - p["q1"]) / p["median"],
            "runs": {"parent": parent, "change": change}}


def run_workload(workload: str, trees: dict, args, spec: dict,
                 scratch: Path) -> tuple[dict, list[str]]:
    runs = {"parent": [], "change": []}
    seeds = [args.first_seed + k for k in range(args.pairs)]
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            out = scratch / f"{workload}-{seed}-{side}.json"
            runs[side].append(run_once(trees[side], workload, seed, args,
                                       out))
            print(f"{workload} seed={seed} {side}: "
                  f"{runs[side][-1]['metrics']}", file=sys.stderr)
    drift = [f"{workload} seed {seed}: {runs['parent'][k]['exact']} vs "
             f"{runs['change'][k]['exact']}"
             for k, seed in enumerate(seeds)
             if runs["parent"][k]["exact"] != runs["change"][k]["exact"]]
    doc = {"pairs": len(seeds), "seeds": seeds,
           "failed_operations": {s: sum(r["failed"] for r in runs[s])
                                 for s in runs},
           "attempted_operations": {s: sum(r["attempted"] for r in runs[s])
                                    for s in runs},
           "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
           "exact_counts": runs["parent"][0]["exact"]}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        doc[name] = {"unit": metric["unit"], **summary(
            *[[r["metrics"][name] for r in runs[s]] for s in runs]),
            "bound": metric["bound"]}
        doc[name]["within_bound"] = doc[name]["ratio"] <= 1 + metric["bound"]
    doc["cpu_s"] = {"unit": "s", **summary(
        *[[r["cpu_s"] for r in runs[s]] for s in runs])}
    doc["diagnostics"] = diagnostics(runs)
    return doc, drift


def diagnostics(runs: dict) -> dict:
    """Each run's ungated diagnostics as a per-side median."""
    out: dict = {}
    for side, side_runs in runs.items():
        for run in side_runs:
            for name, (unit, value) in run["diagnostics"].items():
                out.setdefault(name, {"unit": unit}).setdefault(
                    side, []).append(value)
    for entry in out.values():
        for side in runs:
            if side in entry:
                entry[side] = statistics.median(entry[side])
    return dict(sorted(out.items()))


def check_claim(claim: str, workloads: dict) -> dict:
    workload, metric, fraction = claim.split(":")
    m = workloads[workload][metric]
    pairs = len(m["runs"]["parent"])
    gap = m["parent"]["median"] - m["change"]["median"]
    met = (m["ratio"] <= 1 - float(fraction)
           and m["change_wins"] >= 0.9 * pairs
           and gap > m["parent"]["q3"] - m["parent"]["q1"])
    return {"workload": workload, "metric": metric,
            "target": f"at least {float(fraction):.0%} lower than the "
                      f"parent, change faster in >= 9/10 pairs, medians "
                      f"apart by more than the parent's quartile distance",
            "result": {"met": met, "parent_median": m["parent"]["median"],
                       "change_median": m["change"]["median"],
                       "change_wins": f"{m['change_wins']}/{pairs}"}}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", help="a commit (default: this tree)")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--first-seed", type=int, default=3)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--claim", help="WORKLOAD:METRIC:FRACTION")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.pairs is None:
        args.pairs = 1 if args.smoke else 10
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": export(args.parent, scratch / "parent"),
                 "change": export(args.change, scratch / "change")
                 if args.change else REPO}
        sha = subprocess.run(["git", "-C", str(REPO), "rev-parse",
                              args.parent], check=True, capture_output=True,
                             text=True).stdout.strip()
        import numpy
        doc = {"schema": SCHEMA, "change": None,
               "commits": {"parent": sha,
                           "change": args.change or "the working tree"},
               "command": "python3 benchmarks/e2e/run.py --workload W "
                          "--seed S --seconds "
                          f"{args.seconds or spec['run_seconds']} --trace 0",
               "method": "benchmarks/pairs.py: alternating parent/change "
                         "runs per seed (the parent first on even pair "
                         "indices), each run a fresh process in its own "
                         "tree (parent: git archive of the parent commit); "
                         "inclusive quartiles over the pairs; parent_spread "
                         "= (q3 - q1) / median of the parent's runs; cpu_s "
                         "= the run's RUSAGE_CHILDREN delta",
               "claim": None,
               "environment": {"nproc": os.cpu_count(),
                               "python": platform.python_version(),
                               "numpy": numpy.__version__,
                               "machine": platform.machine()},
               "workloads": {}}
        drift = []
        for workload in workloads:
            doc["workloads"][workload], found = run_workload(
                workload, trees, args, spec, scratch)
            drift += found
        if args.claim:
            doc["claim"] = check_claim(args.claim, doc["workloads"])
        doc["exact_count_drift"] = drift
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    elif not args.smoke:
        print(text)
    for line in drift:
        print(f"exact count drift: {line}", file=sys.stderr)
    failed = any(w["failed_operations"]["change"]
                 or not w["correct"]["change"]
                 for w in doc["workloads"].values())
    return 1 if drift or failed else 0


if __name__ == "__main__":
    sys.exit(main())
