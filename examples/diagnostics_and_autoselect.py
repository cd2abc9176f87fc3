"""Diagnostic plots and automatic scorer selection.

Two of the paper's 'lessons learnt' (Appendix D) and future-work items
(§6.1) in action:

1. A high score is not an explanation — the CPU-temperature family of
   Figure 14 scores well on the runtime's sawtooth but completely misses
   the spike the operator cares about.  The session's event lift — how
   anomalous a family is inside the event window — tells the two apart.
2. The engine can pick the scoring method itself from the shape of the
   search space (family widths vs sample count).

Run:  python examples/diagnostics_and_autoselect.py
"""

from repro.core.autoselect import choose_scorer, score_with_auto_selection
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.workloads.scenarios import sawtooth_temperature_scenario


def main() -> None:
    scenario = sawtooth_temperature_scenario(seed=0)
    families = scenario.families()
    hypotheses = generate_hypotheses(families, scenario.target)

    print("--- ranking (L2) ---")
    table = rank_families(hypotheses, scorer="L2")
    print(table.render(5))

    print("\n--- event lift of the top 3 families ---")
    session = scenario.session()
    first, last = scenario.store.time_range()
    session.set_time_ranges(first, last + 1, *scenario.fault_window)
    for row in table.top(3):
        print(f"  {row.family:<24} score {row.score:.2f}  event lift "
              f"{session.event_lift(row.family):.1f}")

    print("\n--- automatic scorer selection ---")
    decision = choose_scorer(hypotheses)
    print(f"space shape: max family width {decision.max_features}, "
          f"{decision.n_samples} samples")
    print(f"chosen scorer: {decision.scorer_name}")
    print(f"reason: {decision.reason}")

    auto_table, _ = score_with_auto_selection(hypotheses)
    print("\nauto-selected ranking:")
    print(auto_table.render(5))


if __name__ == "__main__":
    main()
