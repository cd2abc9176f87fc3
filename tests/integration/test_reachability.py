"""Every top-level function and class in ``src/repro`` is reachable.

A definition is reachable when some statement in ``src/repro`` other
than the definition itself names it: a call, an attribute, an import
or a registration, in any module except a package ``__init__`` (a
re-export alone keeps nothing alive).  Code that nothing in ``src``
names is either dead or a public entry point for callers outside it;
the entry points are listed in :data:`ENTRY_POINTS`, so a new orphan
fails here with its name and must be deleted or listed.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Definitions no ``src`` module names, kept for callers outside ``src``
#: (benchmarks, examples, tests and the docs).
ENTRY_POINTS = {
    "repro.core.autoselect.score_with_auto_selection",
    "repro.core.families.family_table_from_store",
    "repro.core.pipeline.DeclarativePipeline",
    "repro.evalkit.cost.format_cost_table",
    "repro.evalkit.cost.measure_cost_curve",
    "repro.evalkit.harness.timing_summary",
    "repro.evalkit.metrics.random_ranking_expected_gain",
    "repro.linmodel.batched.batched_cross_val_r2",
    "repro.linmodel.crossval.ShuffledKFold",
    "repro.scoring.base.validate_triple",
    "repro.scoring.univariate.correlation_matrix",
    "repro.serve.cache.normalize_query",
    "repro.sql.optimizer.count_pushed_filters",
    "repro.tsdb.adapter.store_stats",
    "repro.tsdb.model.unique_names",
    "repro.tsdb.persist.dumps_store",
    "repro.tsdb.persist.loads_store",
    "repro.tsdb.persist.read_store",
    "repro.tsdb.persist.save_store",
    "repro.workloads.faults.GcPressureFault",
    "repro.workloads.faults.InputSkewFault",
    "repro.workloads.faults.MemoryLeakFault",
    "repro.workloads.faults.SlowDiskFault",
    "repro.workloads.matrix.validate_scenario",
    "repro.workloads.pipeline.figure1_pipeline",
    "repro.workloads.scenarios.conditioning_scenario_fixed",
    "repro.workloads.scenarios.periodic_namenode_scenario_fixed",
    "repro.workloads.scenarios.raid_intervention_experiment",
    "repro.workloads.signals.bursty_counts",
    "repro.workloads.signals.weekly",
}


def _names(node: ast.AST) -> Counter:
    """How often each identifier is named under ``node``."""
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def _orphans() -> set[str]:
    definitions, named = [], Counter()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node.name,
                                    _names(node)[node.name]))
        if path.name != "__init__.py":
            named += _names(tree)
    return {qualified for qualified, name, in_itself in definitions
            if named[name] == in_itself}


def test_every_definition_is_named_or_an_entry_point():
    orphans = _orphans()
    assert not orphans - ENTRY_POINTS, "unreachable: " + ", ".join(
        sorted(orphans - ENTRY_POINTS))


def test_every_entry_point_is_still_an_orphan():
    """An entry point that ``src`` names again, or that was deleted,
    leaves the list."""
    assert not ENTRY_POINTS - _orphans()
