"""Command-line interface: run scenarios, rankings and the evaluation.

Usage (after installation)::

    python -m repro.cli scenarios                  # list built-in scenarios
    python -m repro.cli explain 5.1 --scorer L2    # rank one case study
    python -m repro.cli explain 5.1 --backend process --workers 2
                                                   # shared-memory process pool
    python -m repro.cli explain 5.3 --lags 0 1 2   # lag-augmented scoring
    python -m repro.cli table6 --scale 0.5         # the §6.1 evaluation
    python -m repro.cli replay --matrix smoke      # incident-matrix replay
    python -m repro.cli scorers                    # registered scorers
    python -m repro.cli sql 5.1 "SELECT ... "      # ad-hoc SQL on a scenario

The CLI is a thin veneer over the library; each subcommand prints the
same reports the examples produce.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.engine_exec.executor import BACKENDS
from repro.scoring.base import list_scorers
from repro.versioned import DEFAULT_CACHE_ENTRIES
from repro.workloads import scenarios as scenario_module

#: Worker count used when ``--workers`` is not given.
DEFAULT_WORKERS = 4

#: ``--backend`` choices; leaving the flag out scores in-process.
POOL_BACKENDS = [b for b in BACKENDS if b is not None]

SCENARIOS: dict[str, Callable] = {
    "5.1": scenario_module.fault_injection_scenario,
    "5.2": scenario_module.conditioning_scenario,
    "5.3": scenario_module.periodic_namenode_scenario,
    "5.4": scenario_module.weekly_raid_scenario,
    "fig14": scenario_module.sawtooth_temperature_scenario,
}


def _positive_int(value: str) -> int:
    """argparse type for options that need a count >= 1."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _non_negative_int(value: str) -> int:
    """argparse type for options that need a count >= 0 (lags)."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ExplainIt! reproduction — declarative RCA engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list built-in case-study scenarios")
    sub.add_parser("scorers", help="list registered scoring methods")

    explain = sub.add_parser("explain",
                             help="rank explanations for a scenario")
    explain.add_argument("scenario", choices=sorted(SCENARIOS))
    explain.add_argument("--scorer", default="L2-P50")
    explain.add_argument("--top", type=int, default=10)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--condition", default=None,
                         help="family to condition on (or 'none')")
    explain.add_argument("--backend", default=None,
                         choices=POOL_BACKENDS,
                         help="score across a worker pool (default: "
                              "in-process, stacked numpy calls over "
                              "hypotheses sharing a target)")
    explain.add_argument("--workers", type=_positive_int, default=None,
                         help="worker count for --backend process "
                              f"(default {DEFAULT_WORKERS})")
    explain.add_argument("--lags", type=_non_negative_int, nargs="+",
                         default=None, metavar="LAG",
                         help="augment X (and Z) with these lags before "
                              "scoring, e.g. --lags 0 1 2 (detects "
                              "delayed effects; wraps the --scorer)")

    replay = sub.add_parser(
        "replay",
        help="replay the incident matrix and print the scorecard")
    replay.add_argument("--matrix", choices=("smoke", "full"),
                        default="smoke",
                        help="which matrix to replay: 'smoke' is one "
                             "base variant per scenario family (the CI "
                             "regression fixture), 'full' every "
                             "family x variant x seed cell")
    replay.add_argument("--scorers", nargs="+",
                        default=["CorrMax", "L2", "L2-P50"])
    replay.add_argument("--ks", type=_positive_int, nargs="+",
                        default=[1, 3, 5, 10], metavar="K",
                        help="precision/recall cutoffs")
    replay.add_argument("--backend", default=None, choices=POOL_BACKENDS,
                        help="score rankings across a worker pool "
                             "(default: in-process)")
    replay.add_argument("--workers", type=_positive_int, default=None,
                        help="worker count for --backend process "
                             f"(default {DEFAULT_WORKERS})")
    replay.add_argument("--scale", type=_positive_int, default=1,
                        help="trace-length multiplier: N emits N x 288 "
                             "samples per series (load testing; 1 "
                             "reproduces the historical scorecards "
                             "exactly)")
    replay.add_argument("--json", default=None, metavar="PATH",
                        help="also write the machine-readable scorecard "
                             "as JSON ('-' for stdout)")

    table6 = sub.add_parser("table6", help="run the §6.1 evaluation")
    table6.add_argument("--scale", type=float, default=1.0)
    table6.add_argument("--samples", type=int, default=240)
    table6.add_argument("--scorers", nargs="+",
                        default=["CorrMean", "CorrMax", "L2", "L2-P50",
                                 "L2-P500"])

    sql = sub.add_parser("sql", help="run ad-hoc SQL over a scenario store")
    sql.add_argument("scenario", choices=sorted(SCENARIOS))
    sql.add_argument("query")
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument("--rows", type=int, default=20)

    serve = sub.add_parser(
        "serve",
        help="serve SQL/explain requests over a scenario store "
             "(reads one request per line from stdin)")
    serve.add_argument("scenario", choices=sorted(SCENARIOS))
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--workers", type=_positive_int, default=None,
                       help="request worker pool size "
                            f"(default {DEFAULT_WORKERS})")
    serve.add_argument("--cache-entries", type=_positive_int,
                       default=DEFAULT_CACHE_ENTRIES,
                       help="result-cache bound "
                            f"(default {DEFAULT_CACHE_ENTRIES})")
    serve.add_argument("--backend", default=None, choices=POOL_BACKENDS,
                       help="default ranking backend for \\explain "
                            "requests (default: in-process)")
    serve.add_argument("--rows", type=int, default=20,
                       help="rows printed per SQL result")
    return parser


def cmd_scenarios(_args: argparse.Namespace) -> int:
    print("Built-in scenarios:")
    for key in sorted(SCENARIOS):
        scenario = SCENARIOS[key](seed=0)
        print(f"  {key:<6} {scenario.name:<32} "
              f"target={scenario.target}")
        print(f"         {scenario.description}")
    return 0


def cmd_scorers(_args: argparse.Namespace) -> int:
    print("Registered scorers:")
    for name in list_scorers():
        print(f"  {name}")
    return 0


def resolve_exec_args(backend: str | None,
                      workers: int | None) -> tuple[int, list[str]]:
    """Resolve executor options, warning about an ignored combination.

    The argparse layer already rejects unknown ``--backend`` values;
    this resolves the cross-argument case that argparse cannot express —
    ``--workers`` is valid on its own but configures the process pool
    only — into an explicit warning instead of a silent no-op.  Returns
    ``(n_workers, warnings)``.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    warnings = []
    if workers is not None and backend is None:
        warnings.append("--workers is only used by --backend process; "
                        "ignored by the default in-process scoring")
    return (workers if workers is not None else DEFAULT_WORKERS,
            warnings)


def cmd_explain(args: argparse.Namespace) -> int:
    n_workers, warnings = resolve_exec_args(args.backend, args.workers)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    scorer = args.scorer
    if args.lags is not None:
        from repro.scoring import LaggedScorer, get_scorer
        scorer = LaggedScorer(lags=args.lags, inner=get_scorer(args.scorer))
    scenario = SCENARIOS[args.scenario](seed=args.seed)
    session = scenario.session()
    if args.condition is not None:
        session.set_condition(None if args.condition.lower() == "none"
                              else args.condition)
    table = session.explain(scorer=scorer, top_k=args.top,
                            backend=args.backend, n_workers=n_workers)
    print(f"Scenario: {scenario.name} — {scenario.description}")
    print(f"Ground-truth causes: {sorted(scenario.causes)}")
    print()
    print(table.render(args.top))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.evalkit.replay import format_scorecard, replay_matrix
    from repro.workloads.matrix import matrix_specs

    n_workers, warnings = resolve_exec_args(args.backend, args.workers)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    specs = matrix_specs(args.matrix)
    card = replay_matrix(specs, scorers=tuple(args.scorers),
                         ks=tuple(args.ks), backend=args.backend,
                         n_workers=n_workers, matrix=args.matrix,
                         scale=args.scale)
    if args.json == "-":
        print(card.to_json(indent=2))
    else:
        print(f"Incident matrix: {args.matrix} "
              f"({len(specs)} scenarios x {len(args.scorers)} scorers)")
        print()
        print(format_scorecard(card))
        if args.json is not None:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(card.to_json(indent=2))
            print(f"\nscorecard written to {args.json}")
    return 0


def cmd_table6(args: argparse.Namespace) -> int:
    from repro.evalkit import evaluate_scorers, format_table6
    from repro.workloads.incidents import standard_incidents

    incidents = standard_incidents(scale=args.scale, n_samples=args.samples)
    result = evaluate_scorers(incidents, scorers=tuple(args.scorers))
    print(format_table6(result))
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    from repro.sql import Database, SqlError
    from repro.tsdb.adapter import register_store

    scenario = SCENARIOS[args.scenario](seed=args.seed)
    db = Database()
    register_store(db, scenario.store)
    try:
        result = db.sql(args.query)
    except SqlError as exc:
        print(f"SQL error: {exc}", file=sys.stderr)
        return 1
    print(result.head_text(args.rows))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Line-oriented serving loop over stdin.

    One request per line: a SQL statement, ``\\explain TARGET
    [SCORER]``, ``\\stats`` (serving counters), or ``\\quit``.  Designed
    to be scripted — ``printf 'SELECT ...\\n' | repro serve 5.1`` — as
    well as used interactively; every response ends with a ``--
    version=… cached=…`` trailer so cache behaviour is observable.
    """
    from repro.serve import QueryServer

    scenario = SCENARIOS[args.scenario](seed=args.seed)
    workers = args.workers if args.workers is not None else DEFAULT_WORKERS
    with QueryServer(scenario.store, n_workers=workers,
                     cache_entries=args.cache_entries,
                     backend=args.backend) as server:
        print(f"serving {scenario.name} ({args.scenario}) — "
              f"{workers} workers, cache {args.cache_entries} entries; "
              "SQL, \\explain TARGET [SCORER], \\stats, \\quit",
              file=sys.stderr)
        for line in sys.stdin:
            request = line.strip()
            if not request or request.startswith("--"):
                continue
            if request in ("\\q", "\\quit", "quit", "exit"):
                break
            if request == "\\stats":
                for key, value in server.stats().items():
                    print(f"{key}: {value}")
                continue
            try:
                if request.startswith("\\explain"):
                    parts = request.split()
                    if len(parts) < 2:
                        print("error: \\explain needs a target family",
                              file=sys.stderr)
                        continue
                    scorer = parts[2] if len(parts) > 2 else "L2-P50"
                    result = server.submit_explain(
                        parts[1], scorer=scorer).result()
                    print(result.value.render(10))
                else:
                    result = server.submit_sql(request).result()
                    print(result.value.head_text(args.rows))
            except Exception as exc:                     # noqa: BLE001
                # A bad request must not take the server down: report
                # and keep draining the stream, like any query REPL.
                print(f"error: {exc}", file=sys.stderr)
                continue
            print(f"-- version={result.version} cached={result.cached} "
                  f"{result.seconds * 1000.0:.1f} ms")
    return 0


_COMMANDS = {
    "scenarios": cmd_scenarios,
    "scorers": cmd_scorers,
    "explain": cmd_explain,
    "replay": cmd_replay,
    "table6": cmd_table6,
    "sql": cmd_sql,
    "serve": cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
