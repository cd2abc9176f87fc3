"""The ExplainIt! core: families, hypotheses, pseudocauses, ranking, session.

- :mod:`repro.core.families` — grouping metrics into feature families
  (§3.2) and the normalised Feature Family Table of Figure 4.
- :mod:`repro.core.hypothesis` — hypothesis triples and their generation
  from a family set (§3.3).
- :mod:`repro.core.pseudocause` — seasonal/trend decomposition and
  pseudocause derivation (§3.4, Figure 3).
- :mod:`repro.core.ranking` — scoring loops, the Score Table, top-k
  selection, and significance annotation (§3.5).
- :mod:`repro.core.explain` — :class:`~repro.core.explain.ExplainCore`,
  the rank step that carries families and answers across store versions,
  shared by the session and the serving tier.
- :mod:`repro.core.pipeline` — the three-stage declarative pipeline of
  Figure 4 over the SQL substrate.
- :mod:`repro.core.engine` — :class:`~repro.core.engine.ExplainItSession`,
  the interactive loop of Algorithm 1.
"""

from repro.core.families import (
    FeatureFamily,
    FamilySet,
    families_from_store,
    families_from_table,
    family_table_from_store,
)
from repro.core.hypothesis import Hypothesis, generate_hypotheses
from repro.core.pseudocause import SeasonalDecomposition, decompose, pseudocauses
from repro.core.ranking import RankedFamily, ScoreTable, rank_families
from repro.core.engine import ExplainItSession
from repro.core.pipeline import DeclarativePipeline
from repro.core.events import EventWindow, detect_spikes, suggest_explain_range
from repro.core.autoselect import AutoScorer, choose_scorer

__all__ = [
    "FeatureFamily",
    "FamilySet",
    "families_from_store",
    "families_from_table",
    "family_table_from_store",
    "Hypothesis",
    "generate_hypotheses",
    "SeasonalDecomposition",
    "decompose",
    "pseudocauses",
    "RankedFamily",
    "ScoreTable",
    "rank_families",
    "ExplainItSession",
    "DeclarativePipeline",
    "EventWindow",
    "detect_spikes",
    "suggest_explain_range",
    "AutoScorer",
    "choose_scorer",
]
