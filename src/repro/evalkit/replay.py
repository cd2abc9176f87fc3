"""Incident replay: drive the full pipeline across the scenario matrix.

The harness takes :class:`~repro.workloads.matrix.ScenarioSpec` keys,
builds each incident (store + families + labels), generates hypotheses,
ranks them with every requested scorer under a chosen execution backend,
and grades the rankings with the paper's discounted gains plus
per-scenario precision/recall@k.  The result is a
:class:`Scorecard` — a machine-readable JSON payload (deterministic:
two runs of the same matrix produce byte-identical documents once
timings are stripped) plus a :func:`format_scorecard` table, with
per-stage timings (build / hypotheses / rank / grade) for the perf
regression net.

Grading conventions
-------------------
- ``gain`` / ``log_gain`` follow the Table 6 harness: the rank of the
  first *cause* family within the full ranking, effects included — an
  effect outranking every cause lowers the gain, exactly as in the
  paper.
- ``precision@k`` / ``recall@k`` are computed on the *effect-filtered*
  ranking: labelled effects are known symptoms, so they are removed
  from the candidate list before counting cause hits.  Recall is
  capped (see :func:`~repro.evalkit.metrics.recall_at_k`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.evalkit.metrics import (
    discounted_gain,
    log_discounted_gain,
    precision_at_k,
    recall_at_k,
    summarize_gains,
)
from repro.workloads.matrix import (
    ReplayScenario,
    ScenarioSpec,
    build_scenario,
)

#: Scorers every replay grades by default (>= 3, per the matrix contract).
DEFAULT_SCORERS = ("CorrMax", "L2", "L2-P50")

#: Cutoffs for precision/recall@k.
DEFAULT_KS = (1, 3, 5, 10)

#: How many leading (effect-filtered) families each cell records.
TOP_PREVIEW = 5


@dataclass
class ScenarioRun:
    """Per-scenario shape and stage timings (shared by its cells)."""

    scenario: str
    family: str
    variant: str
    seed: int
    n_families: int
    n_features: int
    n_samples: int
    build_seconds: float
    hypotheses_seconds: float


@dataclass
class ReplayCell:
    """One (scenario, scorer) cell of the scorecard."""

    scenario: str
    family: str
    variant: str
    seed: int
    scorer: str
    gain: float | None
    log_gain: float | None
    first_cause_rank: int | None
    precision_at: dict[int, float]
    recall_at: dict[int, float]
    top_families: list[str]
    rank_seconds: float
    grade_seconds: float


@dataclass
class Scorecard:
    """The graded matrix: cells, per-scenario runs, and summaries."""

    cells: list[ReplayCell]
    runs: list[ScenarioRun]
    scorers: list[str]
    ks: tuple[int, ...]
    backend: str | None = None
    matrix: str = "custom"

    def by_scorer(self, scorer: str) -> list[ReplayCell]:
        return [c for c in self.cells if c.scorer == scorer]

    def by_family(self, family: str) -> list[ReplayCell]:
        return [c for c in self.cells if c.family == family]

    def cell(self, scenario: str, scorer: str) -> ReplayCell:
        for c in self.cells:
            if c.scenario == scenario and c.scorer == scorer:
                return c
        raise KeyError(f"no cell for ({scenario!r}, {scorer!r})")

    def families(self) -> list[str]:
        seen: dict[str, None] = {}
        for run in self.runs:
            seen.setdefault(run.family)
        return list(seen)

    def scorer_summary(self, scorer: str) -> dict[str, float]:
        """Table 6-style summary block for one scorer across the matrix."""
        rows = self.by_scorer(scorer)
        stats = summarize_gains([c.gain for c in rows])
        for k in self.ks:
            stats[f"precision@{k}"] = float(
                np.mean([c.precision_at[k] for c in rows]))
            stats[f"recall@{k}"] = float(
                np.mean([c.recall_at[k] for c in rows]))
        return stats

    def min_recall(self, family: str, k: int,
                   scorer: str | None = None) -> float:
        """Worst recall@k over a family's cells (optionally one scorer).

        This is the quantity the CI floor gates on the smoke matrix.
        """
        rows = [c for c in self.by_family(family)
                if scorer is None or c.scorer == scorer]
        if not rows:
            raise KeyError(f"no cells for family {family!r}")
        return min(c.recall_at[k] for c in rows)

    # -- serialisation ----------------------------------------------------
    def to_payload(self, with_timings: bool = True,
                   with_meta: bool = True) -> dict:
        """A plain-dict scorecard.

        With ``with_timings=False`` the payload contains only
        deterministic fields: two runs of the same matrix (any backend)
        serialise byte-identically.  ``with_meta=False`` additionally
        drops the backend label, for cross-backend parity
        comparisons.
        """
        cells = []
        for c in self.cells:
            cell = {
                "scenario": c.scenario,
                "family": c.family,
                "variant": c.variant,
                "seed": c.seed,
                "scorer": c.scorer,
                "gain": c.gain,
                "log_gain": c.log_gain,
                "first_cause_rank": c.first_cause_rank,
                "precision_at": {str(k): v
                                 for k, v in sorted(c.precision_at.items())},
                "recall_at": {str(k): v
                              for k, v in sorted(c.recall_at.items())},
                "top_families": list(c.top_families),
            }
            if with_timings:
                cell["rank_seconds"] = c.rank_seconds
                cell["grade_seconds"] = c.grade_seconds
            cells.append(cell)
        runs = []
        for r in self.runs:
            run = {
                "scenario": r.scenario,
                "family": r.family,
                "variant": r.variant,
                "seed": r.seed,
                "n_families": r.n_families,
                "n_features": r.n_features,
                "n_samples": r.n_samples,
            }
            if with_timings:
                run["build_seconds"] = r.build_seconds
                run["hypotheses_seconds"] = r.hypotheses_seconds
            runs.append(run)
        payload = {
            "matrix": self.matrix,
            "scorers": list(self.scorers),
            "ks": list(self.ks),
            "runs": runs,
            "cells": cells,
            "summary": {s: self.scorer_summary(s) for s in self.scorers},
        }
        if with_meta:
            payload["backend"] = self.backend
        return payload

    def to_json(self, with_timings: bool = True,
                with_meta: bool = True, indent: int | None = None) -> str:
        return json.dumps(self.to_payload(with_timings=with_timings,
                                          with_meta=with_meta),
                          sort_keys=True, indent=indent)


def grade_ranking(ranking: Sequence[str], scenario: ReplayScenario,
                  ks: Sequence[int]) -> dict:
    """Grade one ranking against a scenario's labels.

    Returns the paper-style gains (full ranking) and the effect-filtered
    precision/recall@k described in the module docstring.
    """
    filtered = [f for f in ranking if f not in scenario.effects]
    return {
        "gain": discounted_gain(ranking, scenario.causes),
        "log_gain": log_discounted_gain(ranking, scenario.causes),
        "first_cause_rank": next(
            (i + 1 for i, f in enumerate(ranking)
             if f in scenario.causes), None),
        "precision_at": {k: precision_at_k(filtered, scenario.causes, k)
                         for k in ks},
        "recall_at": {k: recall_at_k(filtered, scenario.causes, k)
                      for k in ks},
        "top_families": filtered[:TOP_PREVIEW],
    }


def replay_matrix(specs: Sequence[ScenarioSpec],
                  scorers: Sequence[str] = DEFAULT_SCORERS,
                  ks: Sequence[int] = DEFAULT_KS,
                  backend: str | None = None,
                  n_workers: int = 4,
                  matrix: str = "custom",
                  scale: int = 1) -> Scorecard:
    """Replay every spec through ingest -> hypotheses -> rank -> grade.

    ``backend``/``n_workers`` are forwarded to
    :func:`~repro.core.ranking.rank_families`; both backends produce
    the same scorecard (rankings are bitwise identical), which the
    parity regression test pins.  ``scale`` multiplies every scenario's
    trace length (see :func:`~repro.workloads.matrix.build_scenario`) —
    the load knob for stress replays; ``scale=1`` reproduces the
    historical scorecards exactly.
    """
    if not specs:
        raise ValueError("no scenario specs to replay")
    cells: list[ReplayCell] = []
    runs: list[ScenarioRun] = []
    for spec in specs:
        t0 = time.perf_counter()
        scenario = build_scenario(spec, scale=scale)
        build_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        hypotheses = generate_hypotheses(scenario.families, scenario.target)
        hypotheses_seconds = time.perf_counter() - t0

        first = scenario.families[scenario.target]
        runs.append(ScenarioRun(
            scenario=scenario.name,
            family=spec.family,
            variant=spec.variant,
            seed=spec.seed,
            n_families=len(scenario.families),
            n_features=scenario.families.total_features(),
            n_samples=first.n_samples,
            build_seconds=build_seconds,
            hypotheses_seconds=hypotheses_seconds,
        ))
        for scorer in scorers:
            t0 = time.perf_counter()
            table = rank_families(hypotheses, scorer=scorer,
                                  backend=backend, n_workers=n_workers)
            rank_seconds = time.perf_counter() - t0

            t0 = time.perf_counter()
            ranking = [row.family for row in table.results]
            graded = grade_ranking(ranking, scenario, ks)
            grade_seconds = time.perf_counter() - t0
            cells.append(ReplayCell(
                scenario=scenario.name,
                family=spec.family,
                variant=spec.variant,
                seed=spec.seed,
                scorer=scorer,
                rank_seconds=rank_seconds,
                grade_seconds=grade_seconds,
                **graded,
            ))
    return Scorecard(
        cells=cells,
        runs=runs,
        scorers=list(scorers),
        ks=tuple(ks),
        backend=backend,
        matrix=matrix,
    )


def format_scorecard(card: Scorecard, recall_k: int = 3) -> str:
    """Render the per-scenario block, summary block, and stage timings."""
    lines: list[str] = []
    width = max([len("Scenario")]
                + [len(r.scenario) for r in card.runs]) + 2
    header = (f"{'Scenario':<{width}}{'#Fam':>6}{'#Feat':>7}"
              + "".join(f"{s + ' gain':>14}" for s in card.scorers)
              + "".join(f"{s + f' r@{recall_k}':>14}"
                        for s in card.scorers))
    lines.append(header)
    lines.append("-" * len(header))
    for run in card.runs:
        row = f"{run.scenario:<{width}}{run.n_families:>6}{run.n_features:>7}"
        for scorer in card.scorers:
            cell = card.cell(run.scenario, scorer)
            row += f"{('-' if cell.gain is None else f'{cell.gain:.3f}'):>14}"
        for scorer in card.scorers:
            cell = card.cell(run.scenario, scorer)
            row += f"{cell.recall_at[recall_k]:>14.2f}"
        lines.append(row)
    lines.append("")

    summaries = {s: card.scorer_summary(s) for s in card.scorers}
    label_width = 34
    lines.append(f"{'Summary':<{label_width}}"
                 + "".join(f"{s:>12}" for s in card.scorers))

    def srow(label: str, key: str) -> str:
        cells = "".join(f"{summaries[s][key]:>12.3f}" for s in card.scorers)
        return f"{label:<{label_width}}{cells}"

    lines.append(srow("Harmonic mean (discounted gain)", "harmonic_mean"))
    lines.append(srow("Average (discounted gain)", "average"))
    for k in card.ks:
        lines.append(srow(f"Mean precision@{k}", f"precision@{k}"))
    for k in card.ks:
        lines.append(srow(f"Mean recall@{k}", f"recall@{k}"))
    lines.append("")

    total_build = sum(r.build_seconds for r in card.runs)
    total_hyp = sum(r.hypotheses_seconds for r in card.runs)
    total_rank = sum(c.rank_seconds for c in card.cells)
    total_grade = sum(c.grade_seconds for c in card.cells)
    lines.append(
        f"Stages: build {total_build:.3f}s | hypotheses {total_hyp:.3f}s "
        f"| rank {total_rank:.3f}s | grade {total_grade:.3f}s "
        f"({len(card.runs)} scenarios x {len(card.scorers)} scorers, "
        f"backend={card.backend or 'in-process'})"
    )
    return "\n".join(lines)
