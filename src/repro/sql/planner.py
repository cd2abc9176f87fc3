"""Plan trees: estimated rows per stage, annotated with what ran.

:class:`Planner` walks an optimised AST once, bottom-up, and builds the
tree EXPLAIN renders: one :class:`PlanNode` per stage, carrying the
cardinality estimated from catalog statistics (zone-map-backed for
scannable providers, one-pass cached summaries for materialised
tables).  It makes no physical decision.  Which engine runs a stage,
which side of a join is hashed and what a scan prunes are all decided
by :class:`~repro.sql.executor.Executor` from the relations it actually
holds; the executor then writes each stage's actual row count, the
engine that produced its output, the join build side and the scan
report into the same tree.  ``EXPLAIN`` therefore shows an estimate
next to a recording of the run, and ``est`` vs ``actual`` is the
estimator's observable quality.

Stages are keyed by ``(id(ast_node), role)``: the executor runs the
very AST objects the planner walked, so object identity links a running
stage to its plan node even when two stages are structurally equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.sql.executor import render
from repro.sql.nodes import (
    ColumnRef,
    FuncCall,
    Join,
    Literal,
    Node,
    Select,
    SelectItem,
    Star,
    SubqueryRef,
    Subscript,
    TableRef,
    Union,
    walk,
)
from repro.sql.scan import ScanReport
from repro.sql.stats import (
    DEFAULT_SELECTIVITY,
    TableStats,
    estimate_selectivity,
)

StatsFor = Callable[[str], "TableStats | None"]


@dataclass
class PlanNode:
    """One stage of the physical plan.

    ``label`` is the stable EXPLAIN text (``Filter((v > 0))``) and
    ``est_rows`` the planner's estimate; the executor records the rest.
    ``engine`` stays ``None`` on stages that are not an engine choice of
    their own (scans, LIMIT/DISTINCT, and the HAVING and ORDER BY an
    aggregate operator applies to its own output).  Known gap: a plain
    SELECT's operator records its engine on the Window and Sort stages,
    so one with neither clause (``SELECT UPPER(s) FROM t``) shows no
    engine, whichever tier projected it.
    """

    label: str
    est_rows: float | None = None
    engine: str | None = None         # "columnar" | "row", as run
    note: str = ""                    # "build=left", as run
    actual_rows: int | None = None
    scan: ScanReport | None = None
    children: list["PlanNode"] = field(default_factory=list)

    def annotation(self) -> str:
        parts: list[str] = []
        if self.est_rows is not None:
            parts.append(f"est={_fmt_rows(self.est_rows)} rows")
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


def _fmt_rows(est: float) -> str:
    if est != est or est == float("inf"):
        return "?"
    return str(int(math.ceil(est)))


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

    ``stats_for`` resolves a table name to its :class:`TableStats` (or
    ``None`` when unknown); the planner never materialises a table
    itself.  With the default ``stats_for`` every estimate is unknown.
    """

    def __init__(self, stats_for: StatsFor | None = None) -> None:
        self._stats_for = stats_for or (lambda name: None)
        self._stages: dict[tuple[int, str], PlanNode] = {}

    def plan(self, stmt: Node) -> Plan:
        root, _ = self._plan_statement(stmt)
        return Plan(root, self._stages)

    # ------------------------------------------------------------------
    # Statement nodes
    # ------------------------------------------------------------------
    def _plan_statement(self, stmt: Node) -> tuple[PlanNode, float | None]:
        if isinstance(stmt, Union):
            return self._plan_union(stmt)
        if isinstance(stmt, Select):
            return self._plan_select(stmt)
        node = PlanNode(label=type(stmt).__name__)
        return node, None

    def _plan_union(self, stmt: Union) -> tuple[PlanNode, float | None]:
        label = "UnionAll" if stmt.all else "Union"
        extras = []
        if stmt.order_by:
            extras.append(f"orderBy={len(stmt.order_by)} keys")
        if stmt.limit is not None:
            extras.append(f"limit={stmt.limit}")
        if stmt.offset:
            extras.append(f"offset={stmt.offset}")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        left, left_est = self._plan_statement(stmt.left)
        right, right_est = self._plan_statement(stmt.right)
        est = (left_est + right_est
               if left_est is not None and right_est is not None else None)
        est = _clip_limit(est, stmt.limit, stmt.offset)
        node = PlanNode(label=f"{label}{suffix}", est_rows=est,
                        children=[left, right])
        self._stages[(id(stmt), "union")] = node
        return node, est

    def _plan_select(self, stmt: Select) -> tuple[PlanNode, float | None]:
        source, est, source_stats = self._plan_source(stmt.source)

        # Stages in execution order; rendered outermost-first below.
        stages: list[PlanNode] = []

        def stage(role: str, label: str, est_rows: float | None) -> None:
            node = PlanNode(label=label, est_rows=est_rows)
            self._stages[(id(stmt), role)] = node
            stages.append(node)

        if stmt.where is not None:
            if est is not None:
                est *= estimate_selectivity(stmt.where, source_stats)
            stage("filter", f"Filter({render(stmt.where)})", est)

        if stmt.group_by or stmt.having is not None \
                or self._contains_aggregate_items(stmt):
            keys = ", ".join(render(g) for g in stmt.group_by) or "<global>"
            est = self._estimate_groups(stmt, est, source_stats)
            stage("aggregate", f"Aggregate(groupBy={keys})", est)
            if stmt.having is not None:
                if est is not None:
                    est *= DEFAULT_SELECTIVITY
                stage("having", f"Having({render(stmt.having)})", est)

        window_calls = [node for item in stmt.items
                        if not isinstance(item.expr, Star)
                        for node in walk(item.expr)
                        if isinstance(node, FuncCall)
                        and node.window is not None]
        if window_calls:
            names = ", ".join(dict.fromkeys(c.name for c in window_calls))
            stage("window", f"Window({names})", est)

        if stmt.order_by:
            keys = ", ".join(
                render(o.expr) + ("" if o.ascending else " DESC")
                for o in stmt.order_by)
            stage("sort", f"Sort({keys})", est)

        est = _clip_limit(est, stmt.limit, stmt.offset)
        project = PlanNode(label=self._project_label(stmt), est_rows=est)
        self._stages[(id(stmt), "project")] = project

        # Project > Sort > Window > Having > Aggregate > Filter > source.
        parent = project
        for node in reversed(stages):
            parent.children.append(node)
            parent = node
        parent.children.append(source)
        return project, est

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

    def _estimate_groups(self, stmt: Select, input_est: float | None,
                         stats: TableStats | None) -> float | None:
        if not stmt.group_by:
            return 1.0
        if input_est is None:
            return None
        distinct = 1.0
        known = True
        for key in stmt.group_by:
            summary = _group_key_summary(key, stats)
            if summary is not None and summary.distinct:
                distinct *= summary.distinct
            else:
                known = False
        if known:
            return min(distinct, input_est)
        # Unknown key cardinality: the square-root heuristic bounds the
        # estimate away from both extremes.
        return max(1.0, math.sqrt(input_est))

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------

    def _plan_source(self, source: Node | None
                     ) -> tuple[PlanNode, float | None, TableStats | None]:
        if source is None:
            node = PlanNode(label="OneRow", est_rows=1.0)
            return node, 1.0, None
        if isinstance(source, TableRef):
            alias = f" AS {source.alias}" if source.alias else ""
            stats = self._stats_for(source.name)
            est = float(stats.rows) if stats is not None else None
            node = PlanNode(label=f"Scan({source.name}{alias})", est_rows=est)
            self._stages[(id(source), "scan")] = node
            return node, est, stats
        if isinstance(source, SubqueryRef):
            alias = f" AS {source.alias}" if source.alias else ""
            inner, est = self._plan_statement(source.query)
            node = PlanNode(label=f"Subquery{alias}", est_rows=est,
                            children=[inner])
            self._stages[(id(source), "subquery")] = node
            # A pushed-down filter subquery is transparent for column
            # statistics: it scans one table and only filters rows.
            stats = self._passthrough_stats(source.query)
            return node, est, stats
        if isinstance(source, Join):
            left, left_est, left_stats = self._plan_source(source.left)
            right, right_est, right_stats = self._plan_source(source.right)
            condition = (f" on {render(source.condition)}"
                         if source.condition is not None else "")
            est = self._estimate_join(source, left_est, right_est,
                                      left_stats, right_stats)
            node = PlanNode(label=f"{source.kind.title()}Join{condition}",
                            est_rows=est, children=[left, right])
            self._stages[(id(source), "join")] = node
            return node, est, None
        node = PlanNode(label=type(source).__name__)
        return node, None, None

    def _passthrough_stats(self, query: Node) -> TableStats | None:
        if isinstance(query, Select) and isinstance(query.source, TableRef) \
                and not query.group_by and query.having is None \
                and all(isinstance(item.expr, Star) for item in query.items):
            return self._stats_for(query.source.name)
        return None

    def _estimate_join(self, join: Join, left_est: float | None,
                       right_est: float | None,
                       left_stats: TableStats | None,
                       right_stats: TableStats | None) -> float | None:
        if left_est is None or right_est is None:
            return None
        if join.kind == "CROSS" or join.condition is None:
            return left_est * right_est
        # System R equi-join estimate: |L| * |R| / prod(max(d_l, d_r))
        # over the equi-key pairs' distinct counts.  When no key
        # cardinality is known, fall back to assuming the larger side is
        # key-unique (the FK→PK direction): divide by max(|L|, |R|).
        est = left_est * right_est
        divisors = [
            max(known)
            for e1, e2 in self._equi_column_pairs(join.condition)
            if (known := [d for d in (
                self._ref_distinct(e1, left_stats, right_stats),
                self._ref_distinct(e2, left_stats, right_stats)) if d])
        ]
        if divisors:
            for div in divisors:
                est /= max(1.0, float(div))
        else:
            est /= max(left_est, right_est, 1.0)
        if join.kind in ("LEFT", "FULL"):
            est = max(est, left_est)
        if join.kind in ("RIGHT", "FULL"):
            est = max(est, right_est)
        return est

    @staticmethod
    def _equi_column_pairs(condition: Node) -> list[tuple[Node, Node]]:
        """Top-level ``col = col`` conjuncts of an ON condition."""
        from repro.sql.nodes import BinaryOp, ColumnRef

        def flatten(node: Node) -> list[Node]:
            if isinstance(node, BinaryOp) and node.op == "AND":
                return flatten(node.left) + flatten(node.right)
            return [node]

        return [(conj.left, conj.right) for conj in flatten(condition)
                if isinstance(conj, BinaryOp) and conj.op == "="
                and isinstance(conj.left, ColumnRef)
                and isinstance(conj.right, ColumnRef)]

    @staticmethod
    def _ref_distinct(ref: Node, left_stats: TableStats | None,
                      right_stats: TableStats | None) -> int | None:
        """A join key's distinct count, looked up on whichever side has it."""
        name = getattr(ref, "name", None)
        if name is None:
            return None
        for stats in (left_stats, right_stats):
            if stats is not None:
                summary = stats.column(name)
                if summary is not None and summary.distinct:
                    return summary.distinct
        return None


def _group_key_summary(key: Node, stats: TableStats | None):
    """Column summary for a GROUP BY key expression.

    Resolves plain column references and map subscripts with a literal
    string key — ``GROUP BY tag['host']`` prices off the per-tag-key
    virtual-column statistics the tsdb adapter collects.
    """
    if stats is None:
        return None
    if isinstance(key, ColumnRef):
        return stats.column(key.name)
    if (isinstance(key, Subscript) and isinstance(key.base, ColumnRef)
            and isinstance(key.index, Literal)
            and isinstance(key.index.value, str)):
        return stats.map_column(key.base.name, key.index.value)
    if hasattr(key, "name"):            # aliased/other named expressions
        return stats.column(getattr(key, "name"))
    return None


def _item_text(item: SelectItem) -> str:
    if isinstance(item.expr, Star):
        return "*" if item.expr.table is None else f"{item.expr.table}.*"
    text = render(item.expr)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _clip_limit(est: float | None, limit: int | None,
                offset: int | None) -> float | None:
    if est is None:
        return None
    if offset:
        est = max(0.0, est - offset)
    if limit is not None:
        est = min(est, float(limit))
    return est
