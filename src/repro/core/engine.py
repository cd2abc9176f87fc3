"""The interactive session: Algorithm 1's workflow.

The three user steps of §1:

1. pick a target metric (family) and a time range,
2. declare the search space (all families, a subset, or SQL),
3. review ranked candidate causes; repeat with drill-downs.

A session wraps a :class:`~repro.tsdb.TimeSeriesStore` (and/or a
:class:`~repro.sql.Database`), holds the Y/Z selections and the two time
ranges of Figure 2, and exposes ``explain()`` as the ranking entry point.
The ranking itself — and the family set and answers it carries across
store versions — is the explain core's
(:class:`~repro.core.explain.ExplainCore`), the same one
:class:`~repro.serve.server.QueryServer` serves from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.explain import ExplainCore, _Generation
from repro.core.families import FamilyError, FamilySet, FeatureFamily
from repro.core.pseudocause import pseudocauses
from repro.core.ranking import DEFAULT_TOP_K, ScoreTable
from repro.scoring.base import Scorer
from repro.sql.catalog import Database
from repro.tsdb.adapter import register_store
from repro.tsdb.storage import StoreView


@dataclass
class TimeRanges:
    """Figure 2's two ranges: the learning horizon and the event window."""

    total_start: int
    total_end: int
    explain_start: int | None = None
    explain_end: int | None = None

    def __post_init__(self) -> None:
        if self.total_end <= self.total_start:
            raise ValueError(
                f"empty total range [{self.total_start}, {self.total_end})"
            )
        has_explain = (self.explain_start is not None
                       or self.explain_end is not None)
        if has_explain:
            if self.explain_start is None or self.explain_end is None:
                raise ValueError("explain range needs both endpoints")
            if not (self.total_start <= self.explain_start
                    < self.explain_end <= self.total_end):
                raise ValueError(
                    "explain range must lie inside the total range"
                )

    @property
    def explain(self) -> tuple[int, int]:
        """The event window, defaulting to the whole range (§3's workflow)."""
        if self.explain_start is None or self.explain_end is None:
            return (self.total_start, self.total_end)
        return (self.explain_start, self.explain_end)


class ExplainItSession:
    """One interactive root-cause analysis session."""

    def __init__(self, store: StoreView,
                 group_by: str = "name") -> None:
        self.store = store
        self.group_by = group_by
        self.db = Database()
        register_store(self.db, store)
        self._ranges: TimeRanges | None = None
        self._target: str | None = None
        self._condition: str | FeatureFamily | None = None
        self._core = ExplainCore(group_by)
        self.history: list[ScoreTable] = []

    # ------------------------------------------------------------------
    # Step 1: target + time ranges
    # ------------------------------------------------------------------
    def set_time_ranges(self, total_start: int, total_end: int,
                        explain_start: int | None = None,
                        explain_end: int | None = None) -> None:
        """Select the learning horizon and (optionally) the event window."""
        self._ranges = TimeRanges(total_start, total_end,
                                  explain_start, explain_end)

    def set_target(self, family: str) -> None:
        """Select the target family Y (e.g. ``pipeline_runtime``)."""
        self._target = family

    # ------------------------------------------------------------------
    # Step 2: conditioning and search-space selection
    # ------------------------------------------------------------------
    def set_condition(self, condition: str | FeatureFamily | None) -> None:
        """Condition on a family name, an explicit Z family, or nothing."""
        self._condition = condition

    def condition_on_pseudocause(self, period: int | None = None) -> None:
        """Condition on the target's own trend+seasonal components (§3.4)."""
        families = self.families()
        if self._target is None:
            raise FamilyError("set_target before conditioning")
        target = families[self._target]
        z_matrix = pseudocauses(target.matrix, period=period)
        self._condition = FeatureFamily(
            name=f"pseudocause({self._target})",
            matrix=z_matrix,
            members=[f"{self._target}:trend", f"{self._target}:seasonal"],
            grid=target.grid,
        )

    def families(self) -> FamilySet:
        """The family set (grouped per ``group_by``) for the current
        horizon at the store's version."""
        return self._generation().families

    # ------------------------------------------------------------------
    # Step 3: ranking
    # ------------------------------------------------------------------
    def explain(self, scorer: str | Scorer = "L2-P50",
                search: Iterable[str] | None = None,
                exclude: Iterable[str] = (),
                top_k: int = DEFAULT_TOP_K) -> ScoreTable:
        """Run one iteration of Algorithm 1 and return the Score Table.

        The target/condition-side work is shared across all candidate
        families in stacked numpy calls, and a repeat after a write
        scores only the hypotheses the write touched
        (:meth:`ExplainCore.rank <repro.core.explain.ExplainCore.rank>`).
        """
        if self._target is None:
            raise FamilyError("set_target before explain()")
        table = self._core.rank(self._generation(), self._target, scorer,
                                self._condition, search, exclude, top_k)
        self.db.register("score", table.to_table())
        self.history.append(table)
        return table

    def drill_down(self, families: Sequence[str],
                   scorer: str | Scorer = "L2-P50",
                   top_k: int = DEFAULT_TOP_K) -> ScoreTable:
        """Re-rank within a narrowed search space (the §5.4 workflow)."""
        return self.explain(scorer=scorer, search=families, top_k=top_k)

    def suggest_event_window(self, window: int = 30,
                             threshold: float = 4.0):
        """Propose the event range to explain from the target itself.

        Runs the spike/CUSUM detectors of :mod:`repro.core.events` on the
        target family's mean series and, when a window is found, installs
        it as the explain range (Figure 2's second selection).  Returns
        the :class:`~repro.core.events.EventWindow` or None.
        """
        from repro.core.events import suggest_explain_range
        if self._target is None:
            raise FamilyError("set_target before suggest_event_window()")
        families = self.families()
        target = families[self._target]
        series = target.matrix.mean(axis=1)
        event = suggest_explain_range(series, window=window,
                                      threshold=threshold)
        if event is not None:
            ranges = self._horizon(self.store.read_view())
            lo = int(target.grid[event.start])
            hi = int(target.grid[min(event.end, target.grid.size - 1)])
            if ranges.total_start <= lo < hi <= ranges.total_end:
                self._ranges = TimeRanges(
                    ranges.total_start, ranges.total_end,
                    explain_start=lo, explain_end=hi,
                )
        return event

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def event_lift(self, family: str) -> float:
        """How anomalous a family is inside the explain window.

        Mean absolute z-score of the family's metrics during the event
        window relative to their behaviour outside it; a visual-aid
        companion to the score (the paper leans on diagnostic plots,
        Appendix D).
        """
        if self._ranges is None:
            raise FamilyError("set_time_ranges before event_lift()")
        families = self.families()
        fam = families[family]
        lo, hi = self._ranges.explain
        inside = (fam.grid >= lo) & (fam.grid < hi)
        if inside.all() or not inside.any():
            return 0.0
        outside = fam.matrix[~inside]
        mean = outside.mean(axis=0)
        std = outside.std(axis=0)
        std = np.where(std > 1e-12, std, 1.0)
        z_scores = np.abs((fam.matrix[inside] - mean) / std)
        return float(z_scores.mean())

    def _horizon(self, view: StoreView) -> TimeRanges:
        """The selected ranges, else ``view``'s whole time range — so a
        session that never called :meth:`set_time_ranges` follows ingest."""
        if self._ranges is not None:
            return self._ranges
        lo, hi = view.time_range()
        return TimeRanges(lo, hi + 1)

    def _generation(self) -> _Generation:
        """The core's generation for the current horizon at the store's
        version: a version bump refreshes the previous one, reusing the
        families (and scores) no write touched."""
        view = self.store.read_view()
        ranges = self._horizon(view)
        return self._core.generation(view, ranges.total_start,
                                     ranges.total_end)

