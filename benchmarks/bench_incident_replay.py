"""Incident-replay regression bench: the matrix as a standing fixture.

Replays the scenario matrix twice through the evalkit harness and
asserts the two properties every perf PR must preserve:

1. **Determinism** — the two scorecards are bit-identical once timings
   are stripped (same rankings, gains, precision/recall@k).
2. **Accuracy floor** — on the smoke matrix, each scenario family's
   worst recall@3 (over all scorers) stays at its pinned floor.  The
   smoke matrix is deterministic, so the floors are exact: a single
   rank shift in any cell fails the gate.

The full matrix (``--matrix full``) adds deliberately hard cells (noisy
variants, extra seeds); those are reported, not gated — the Table 6
spread, not a pass/fail.

Run ``python benchmarks/bench_incident_replay.py --smoke`` (the CI
``replay-smoke`` job) or ``--matrix full`` for the whole grid.
"""

from __future__ import annotations

import argparse
import time

from repro.evalkit.replay import (
    DEFAULT_SCORERS,
    Scorecard,
    format_scorecard,
    replay_matrix,
)
from repro.workloads.matrix import matrix_specs

#: Worst-case recall@3 per scenario family on the smoke matrix, over
#: all of :data:`DEFAULT_SCORERS`.  Exact values pinned from the
#: deterministic fixture — any ranking regression moves one below 1.0.
SMOKE_RECALL3_FLOORS = {
    "microservice_cascade": 1.0,
    "network_congestion": 1.0,
    "seasonal_contamination": 1.0,
    "correlated_storm": 1.0,
    "slow_burn": 1.0,
}


def run_replay(matrix: str) -> tuple[Scorecard, float]:
    specs = matrix_specs(matrix)
    start = time.perf_counter()
    card = replay_matrix(specs, scorers=DEFAULT_SCORERS, matrix=matrix)
    return card, time.perf_counter() - start


def check_determinism(first: Scorecard, second: Scorecard) -> None:
    doc_a = first.to_json(with_timings=False)
    doc_b = second.to_json(with_timings=False)
    assert doc_a == doc_b, (
        "scorecards differ between two replays of the same matrix — "
        "the pipeline is no longer deterministic"
    )
    print(f"determinism: OK ({len(doc_a)}-byte scorecards identical)")


def check_floors(card: Scorecard) -> None:
    for family, floor in SMOKE_RECALL3_FLOORS.items():
        worst = card.min_recall(family, k=3)
        status = "OK" if worst >= floor else "FAIL"
        print(f"recall@3 floor {family:<24} {worst:.2f} >= {floor:.2f} "
              f"[{status}]")
        assert worst >= floor, (
            f"{family}: recall@3 {worst:.2f} fell below the pinned "
            f"floor {floor:.2f}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--matrix", choices=("smoke", "full"),
                        default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="shortcut for --matrix smoke (the CI gate)")
    args = parser.parse_args()
    matrix = "smoke" if args.smoke else args.matrix

    card1, seconds1 = run_replay(matrix)
    card2, seconds2 = run_replay(matrix)
    print(format_scorecard(card1))
    print()
    print(f"replay wall time: {seconds1:.3f}s / {seconds2:.3f}s "
          "(two runs)")
    check_determinism(card1, card2)
    if matrix == "smoke":
        check_floors(card1)
    else:
        for family in card1.families():
            print(f"min recall@3 {family:<24} "
                  f"{card1.min_recall(family, k=3):.2f} (reported)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
