"""Plan trees: one node per stage, annotated with what ran.

:class:`Planner` walks an optimised AST once, bottom-up, and builds the
tree EXPLAIN renders: one :class:`PlanNode` per stage, labelled with
what the stage computes.  It reads no statistics and makes no physical
decision.  Which engine runs a stage, which side of a join is hashed
and what a scan prunes are all decided by
:class:`~repro.sql.executor.Executor` from the relations it actually
holds; the executor then writes each stage's actual row count, the
engine that produced its output, the join build side and the scan
report into the same tree.  ``EXPLAIN`` therefore shows a recording of
the run and nothing that was guessed.

Stages are keyed by ``(id(ast_node), role)``: the executor runs the
very AST objects the planner walked, so object identity links a running
stage to its plan node even when two stages are structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from repro.sql.executor import render
from repro.sql.nodes import (
    FuncCall,
    Join,
    Node,
    Select,
    SelectItem,
    Star,
    SubqueryRef,
    TableRef,
    Union,
    walk,
)
from repro.sql.scan import ScanReport


@dataclass
class PlanNode:
    """One stage of the physical plan.

    ``label`` is the stable EXPLAIN text (``Filter((v > 0))``); the
    executor records the rest.  ``engine`` is set on the stage that
    names an operator's engine choice — Filter, Join, Aggregate (which
    also applies its HAVING and ORDER BY) and, for a SELECT without
    aggregates, Project (which also computes its windows and ORDER BY)
    — and stays ``None`` everywhere else.
    """

    label: str
    engine: str | None = None         # "columnar" | "row", as run
    note: str = ""                    # "build=left", as run
    actual_rows: int | None = None
    scan: ScanReport | None = None
    children: list["PlanNode"] = field(default_factory=list)

    #: Always ``None``: nothing is estimated.  Kept for readers written
    #: against the former estimator (``benchmarks/e2e/wl_sql.py``).
    est_rows: ClassVar[None] = None

    def annotation(self) -> str:
        parts: list[str] = []
        if self.actual_rows is not None:
            parts.append(f"actual={self.actual_rows} rows")
        if self.engine is not None:
            parts.append(f"engine={self.engine}")
        if self.note:
            parts.append(self.note)
        if self.scan is not None:
            parts.append(f"chunks={self.scan.chunks_scanned} scanned"
                         f"/{self.scan.chunks_pruned} pruned")
            if self.scan.series_total:
                parts.append(f"series={self.scan.series_scanned}"
                             f"/{self.scan.series_total}")
        return f" ({', '.join(parts)})" if parts else ""


class Plan:
    """The plan tree plus the stage index the executor records into."""

    def __init__(self, root: PlanNode,
                 stages: dict[tuple[int, str], PlanNode]) -> None:
        self.root = root
        self._stages = stages

    def stage(self, ast_node: Node, role: str) -> PlanNode | None:
        return self._stages.get((id(ast_node), role))

    def record(self, ast_node: Node, role: str, rows: int,
               engine: str | None = None, note: str = "") -> None:
        node = self.stage(ast_node, role)
        if node is not None:
            node.actual_rows = rows
            node.engine = engine
            node.note = note

    def record_scan(self, ast_node: Node, report: ScanReport) -> None:
        node = self.stage(ast_node, "scan")
        if node is not None:
            node.scan = report
            node.actual_rows = report.rows

    def render(self) -> str:
        lines: list[str] = []

        def emit(node: PlanNode, depth: int) -> None:
            lines.append(f"{'  ' * depth}{node.label}{node.annotation()}")
            for child in node.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        return "\n".join(lines)


class Planner:
    """Builds a :class:`Plan` for an optimised statement.

    Planning reads no catalog and touches no table: a stage's label is
    all it knows before the run.  The optional argument is the catalog
    hook of the former cardinality estimator, still passed by
    ``benchmarks/e2e/wl_sql.py``; it is accepted and ignored.
    """

    def __init__(self, _stats_for: object = None) -> None:
        self._stages: dict[tuple[int, str], PlanNode] = {}

    def plan(self, stmt: Node) -> Plan:
        return Plan(self._plan_statement(stmt), self._stages)

    def _stage(self, ast_node: Node, role: str, label: str,
               children: Sequence[PlanNode] = ()) -> PlanNode:
        """A plan node the executor records into under ``(ast_node, role)``."""
        node = PlanNode(label=label, children=list(children))
        self._stages[(id(ast_node), role)] = node
        return node

    # ------------------------------------------------------------------
    # Statement nodes
    # ------------------------------------------------------------------
    def _plan_statement(self, stmt: Node) -> PlanNode:
        if isinstance(stmt, Union):
            return self._plan_union(stmt)
        if isinstance(stmt, Select):
            return self._plan_select(stmt)
        return PlanNode(label=type(stmt).__name__)

    def _plan_union(self, stmt: Union) -> PlanNode:
        label = "UnionAll" if stmt.all else "Union"
        extras = []
        if stmt.order_by:
            extras.append(f"orderBy={len(stmt.order_by)} keys")
        if stmt.limit is not None:
            extras.append(f"limit={stmt.limit}")
        if stmt.offset:
            extras.append(f"offset={stmt.offset}")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return self._stage(stmt, "union", f"{label}{suffix}",
                           [self._plan_statement(stmt.left),
                            self._plan_statement(stmt.right)])

    def _plan_select(self, stmt: Select) -> PlanNode:
        source = self._plan_source(stmt.source)

        # Stages in execution order; rendered outermost-first below.
        stages: list[PlanNode] = []

        def stage(role: str, label: str) -> None:
            stages.append(self._stage(stmt, role, label))

        if stmt.where is not None:
            stage("filter", f"Filter({render(stmt.where)})")

        if stmt.group_by or stmt.having is not None \
                or self._contains_aggregate_items(stmt):
            keys = ", ".join(render(g) for g in stmt.group_by) or "<global>"
            stage("aggregate", f"Aggregate(groupBy={keys})")
            if stmt.having is not None:
                stage("having", f"Having({render(stmt.having)})")

        window_calls = [node for item in stmt.items
                        if not isinstance(item.expr, Star)
                        for node in walk(item.expr)
                        if isinstance(node, FuncCall)
                        and node.window is not None]
        if window_calls:
            names = ", ".join(dict.fromkeys(c.name for c in window_calls))
            stage("window", f"Window({names})")

        if stmt.order_by:
            keys = ", ".join(
                render(o.expr) + ("" if o.ascending else " DESC")
                for o in stmt.order_by)
            stage("sort", f"Sort({keys})")

        project = self._stage(stmt, "project", self._project_label(stmt))

        # Project > Sort > Window > Having > Aggregate > Filter > source.
        parent = project
        for node in reversed(stages):
            parent.children.append(node)
            parent = node
        parent.children.append(source)
        return project

    def _project_label(self, stmt: Select) -> str:
        projection = ", ".join(_item_text(item) for item in stmt.items[:6])
        if len(stmt.items) > 6:
            projection += ", …"
        qualifiers = []
        if stmt.distinct:
            qualifiers.append("distinct")
        if stmt.limit is not None:
            qualifiers.append(f"limit={stmt.limit}")
        if stmt.offset:
            qualifiers.append(f"offset={stmt.offset}")
        suffix = f" [{', '.join(qualifiers)}]" if qualifiers else ""
        return f"Project({projection}){suffix}"

    @staticmethod
    def _contains_aggregate_items(stmt: Select) -> bool:
        from repro.sql.functions import is_aggregate
        return any(
            isinstance(node, FuncCall) and node.window is None
            and is_aggregate(node.name)
            for item in stmt.items if not isinstance(item.expr, Star)
            for node in walk(item.expr)
        )

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def _plan_source(self, source: Node | None) -> PlanNode:
        if source is None:
            return PlanNode(label="OneRow")
        if isinstance(source, TableRef):
            alias = f" AS {source.alias}" if source.alias else ""
            return self._stage(source, "scan", f"Scan({source.name}{alias})")
        if isinstance(source, SubqueryRef):
            alias = f" AS {source.alias}" if source.alias else ""
            return self._stage(source, "subquery", f"Subquery{alias}",
                               [self._plan_statement(source.query)])
        if isinstance(source, Join):
            condition = (f" on {render(source.condition)}"
                         if source.condition is not None else "")
            return self._stage(source, "join",
                               f"{source.kind.title()}Join{condition}",
                               [self._plan_source(source.left),
                                self._plan_source(source.right)])
        return PlanNode(label=type(source).__name__)


def _item_text(item: SelectItem) -> str:
    if isinstance(item.expr, Star):
        return "*" if item.expr.table is None else f"{item.expr.table}.*"
    text = render(item.expr)
    if item.alias:
        text += f" AS {item.alias}"
    return text

