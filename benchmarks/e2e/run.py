"""The repo's end-to-end benchmark: one command, four workloads.

Driver form (one workload, one fresh process; last stdout line is the
result JSON the driver reads)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs, each in a fresh process
(``--runs K`` repeats the set on seeds N..N+K-1), every metric is
printed by name with its unit, and the combined result document goes to
``--out``.  ``--smoke`` switches to the fixed-count smoke sizes;
``--trace-out FILE`` also writes the traced run's spans as JSON lines.
Exit status is non-zero after printing when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

harness.pin_threads(2)            # before numpy is first imported

if not (harness.REPO / "src" / "repro").is_dir():
    sys.exit("benchmarks/e2e/run.py: src/repro not found; run from a "
             "checkout of the repository")
sys.path.insert(0, str(harness.REPO / "src"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase length (default: run_seconds "
                             "from BENCHMARK.json, 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: repeat on this many seeds")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--trace-out", help="write spans here (JSON lines)")
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> dict:
    """Set up, measure and check one workload in this process."""
    import sizes
    from trace import Tracer
    import wl_dashboard
    import wl_explain
    import wl_ingest
    import wl_sql

    module = {m.NAME: m for m in
              (wl_explain, wl_sql, wl_dashboard, wl_ingest)}[args.workload]
    table = sizes.SMOKE if args.smoke else sizes.FULL
    size = table[args.workload]
    spec = harness.benchmark_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    work = harness.WorkDir()
    state = None
    try:
        setup_seconds, state = harness.repeat_setup(
            lambda: module.setup(args.seed, size, work), module.teardown,
            table["setup_repeats"])
        if args.trace:
            tracer = Tracer()
            result = module.traced(state, seconds, tracer)
            if args.trace_out:
                tracer.write_jsonl(args.trace_out)
        else:
            result = module.measure(state, seconds)
    finally:
        if state is not None:
            module.teardown(state)
        work.close()

    attempted, failed = result["attempted"], result["failed"]
    doc = {
        "schema": harness.SCHEMA, "workload": args.workload,
        "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": seconds, "size": size,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "input_digest": state.input_digest,
        "diagnostics": result.get("diagnostics", {}),
        "counts": result.get("counts", {}),
        "environment": harness.environment(),
    }
    if args.trace:
        # A layer or counter the workload never touches reads 0.
        doc["metrics"] = {
            m["name"]: {"value": float(result["layers"].get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        setup = harness.metric(harness.median(setup_seconds), "s",
                               len(setup_seconds))
        rss = harness.metric(harness.peak_rss_mb(), "MB", 1)
        samples = result["op_seconds"]
        op = harness.metric(1000.0 * harness.fast_quartile(samples), "ms",
                            len(samples))
        op["note"] = ("fast quartile of "
                      + harness.UNIT_OPERATION[args.workload])
        doc["op_seconds"] = samples
        doc["metrics"] = {
            "op_ms": op, **result["metrics"], "setup_s": setup,
            "peak_rss_mb": rss,
            "failed_share": harness.metric(failed / attempted, "ratio",
                                           attempted),
        }
    doc["gated"] = [m["name"] for m in
                    spec["per_layer" if args.trace else "end_to_end"]]
    return doc


def driver_line(doc: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    metrics = {name: {"value": doc["metrics"][name]["value"],
                      "unit": doc["metrics"][name]["unit"]}
               for name in doc["gated"]}
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; merge their documents."""
    work = harness.WorkDir()
    runs, status = [], 0
    try:
        for k in range(args.runs):
            for workload in harness.WORKLOADS:
                out = work.path / f"{workload}-{k}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed + k),
                       "--trace", str(args.trace), "--out", str(out)]
                if args.seconds is not None:
                    cmd += ["--seconds", str(args.seconds)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, capture_output=True, text=True)
                sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
                sys.stderr.write(proc.stderr)
                status = status or proc.returncode
                if out.exists():
                    runs.append(json.loads(out.read_text(encoding="utf-8")))
    finally:
        work.close()
    environment = runs[0].pop("environment") if runs else {}
    for run in runs[1:]:
        run.pop("environment")
    doc = {"schema": harness.SCHEMA, "environment": environment,
           "runs": runs}
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    doc = run_workload(args)
    harness.print_metrics(
        f"{args.workload}  seed={args.seed}  trace={args.trace}  "
        f"seconds={doc['seconds']}  fsync_every=64  "
        f"attempted={doc['attempted']}  failed={doc['failed']}",
        doc["metrics"])
    if doc["diagnostics"]:
        harness.print_metrics("  diagnostics (not gated):", {
            k: v for k, v in doc["diagnostics"].items()
            if isinstance(v, dict) and "value" in v})
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(driver_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
