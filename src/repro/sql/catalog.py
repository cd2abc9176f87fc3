"""Database facade: table catalog, UDF registry, query entry point.

Mirrors the role of the Spark SQL session in the paper: external data
sources register tables (the ``tsdb`` adapter, feature family tables,
inventory/machine databases for metadata joins), users register UDFs such
as ``hostgroup``, and intermediate results are saved as temporary tables
tied to the interactive session.

Every query gets a plan tree (:mod:`repro.sql.planner`) — one node per
stage, built without reading a table — and the executor records into it
what actually ran.  Scannable providers receive the sargable part of the
WHERE so they can hand back only the series and time range it can
match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sql.errors import SchemaError
from repro.sql.executor import Executor
from repro.sql.nodes import Node
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import Plan, Planner
from repro.sql.scan import ScanPredicate, ScanReport
from repro.sql.table import Table
from repro.versioned import VersionedCache

TableProvider = Callable[[], Table]
ScanFn = Callable[[ScanPredicate], "tuple[Table, ScanReport]"]

#: Pruned scan results are cached per predicate, bounded *per source* —
#: a dashboard re-issuing the same selective query hits memory, the cap
#: bounds the footprint when predicates vary, and one source's cold-scan
#: churn can never evict another's hot entries.
_SCAN_CACHE_SIZE = 8


@dataclass
class _Source:
    """One lazily materialised table: its callbacks and what they built.

    The full table lives in its own single-slot cache so that scan churn
    can never evict it; both caches are keyed on ``version_fn()``.
    """

    provider: TableProvider
    version_fn: Callable[[], Any]
    scan_fn: ScanFn | None = None
    table: VersionedCache = field(default_factory=lambda: VersionedCache(1))
    scans: VersionedCache = field(
        default_factory=lambda: VersionedCache(_SCAN_CACHE_SIZE))


class Database:
    """A catalog of named tables plus UDFs, with a ``sql()`` entry point.

    ``columnar=False`` disables the vectorized execution tier and runs
    every query through the row-at-a-time reference interpreter; the
    parity tests use it as the baseline the fast path must match bit
    for bit.  The plan is built in both modes (it only records).

    Serving runs many worker threads through one Database: the read
    path only reads the catalog dicts, and every cache it fills is a
    leaf-locked :class:`~repro.versioned.VersionedCache`.
    """

    def __init__(self, optimize_queries: bool = True,
                 columnar: bool = True) -> None:
        self._tables: dict[str, Table] = {}
        self._sources: dict[str, _Source] = {}
        self._udfs: dict[str, Callable[..., Any]] = {}
        self._optimize = optimize_queries
        self._columnar = columnar
        self.last_plan: Plan | None = None

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def register(self, name: str, table: Table) -> None:
        """Register (or replace) a materialised table."""
        self._sources.pop(name.lower(), None)
        self._tables[name.lower()] = table

    def register_provider(self, name: str, provider: TableProvider) -> None:
        """Register a lazy table provider (evaluated on first reference)."""
        self.register_versioned_provider(name, provider, lambda: 0)

    def register_versioned_provider(self, name: str, provider: TableProvider,
                                    version_fn: Callable[[], Any]) -> None:
        """Register a lazy provider whose result is keyed on a version.

        The provider materialises on first reference and is re-invoked
        once ``version_fn()`` returns a newer value than the one the
        cached table was built at — the cache-coherence hook for tables
        backed by a mutable store (``store.version``).
        """
        self._tables.pop(name.lower(), None)
        self._sources[name.lower()] = _Source(provider, version_fn)

    def register_scannable_provider(self, name: str, provider: TableProvider,
                                    version_fn: Callable[[], Any],
                                    scan_fn: ScanFn,
                                    stats_fn: object = None) -> None:
        """A versioned provider that can additionally *scan*.

        ``scan_fn(predicate)`` returns a pruned ``(table, report)`` pair
        — any superset of the rows matching the predicate, in the same
        order the full table presents them (the executor re-applies the
        full WHERE) — keyed on ``version_fn()`` like the full
        materialisation.  ``stats_fn`` fed the former cardinality
        estimator; it is accepted and never called.
        """
        self._tables.pop(name.lower(), None)
        self._sources[name.lower()] = _Source(provider, version_fn, scan_fn)

    def register_udf(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a scalar user-defined function, e.g. ``hostgroup``."""
        self._udfs[name.upper()] = fn

    def drop(self, name: str) -> None:
        """Remove a table from the catalog (no error if absent)."""
        self._tables.pop(name.lower(), None)
        self._sources.pop(name.lower(), None)

    def table_names(self) -> list[str]:
        """All registered table names, sorted."""
        return sorted(set(self._tables) | set(self._sources))

    def table(self, name: str) -> Table:
        """Resolve a table by name, materialising lazy providers."""
        key = name.lower()
        if key in self._tables:
            return self._tables[key]
        source = self._sources.get(key)
        if source is None:
            raise SchemaError(
                f"unknown table {name!r}; registered: {self.table_names()}"
            )
        return source.table.get_or_build(
            None, source.version_fn(), source.provider)

    # ------------------------------------------------------------------
    # Executor hooks
    # ------------------------------------------------------------------
    def stats_for(self, name: str) -> None:
        """Always ``None``: no table is summarised for planning.

        The former estimator's catalog hook, kept because
        ``benchmarks/e2e`` still calls it.
        """
        return None

    def scan_table(self, name: str, predicate: ScanPredicate
                   ) -> tuple[Table, ScanReport] | None:
        """Pruned scan through a scannable provider, or ``None``.

        Results are cached per predicate in a small LRU *per source*,
        so repeated dashboard queries skip the scan entirely; a scan
        that observes a newer version drops the superseded entries.
        """
        source = self._sources.get(name.lower())
        if source is None or source.scan_fn is None:
            return None
        return source.scans.get_or_build(
            predicate, source.version_fn(),
            lambda: source.scan_fn(predicate))

    def cache_info(self) -> dict[str, Any]:
        """Scan-cache behaviour: hit/miss totals and entries per source."""
        scans = {name: source.scans.stats
                 for name, source in self._sources.items()
                 if source.scan_fn is not None}
        return {
            "scan_hits": sum(s.hits for s in scans.values()),
            "scan_misses": sum(s.misses for s in scans.values()),
            "scan_entries": {name: s.entries for name, s in scans.items()},
        }

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def sql(self, query: str) -> Table:
        """Parse, optimise, plan and execute one SQL statement."""
        return self.sql_with_reads(query)[0]

    def sql_with_reads(self, query: str) -> tuple[Table, frozenset | None]:
        """:meth:`sql`, and what the statement read of the catalog.

        The reads are the union of its pruned scans' series filters
        (:attr:`ScanReport.reads`), or ``None`` when any read took a
        whole table or a scan pruned no series — what a cache of the
        result must be swept by.  They are the call's own: concurrent
        requests share one Database.
        """
        stmt = parse(query)
        if self._optimize:
            stmt = optimize(stmt)
        return self._execute(stmt)

    def execute_ast(self, stmt: Node) -> Table:
        """Plan and execute an already-parsed statement.

        The plan (with per-stage actuals filled in by the run) stays
        available as :attr:`last_plan` until the next query.
        """
        return self._execute(stmt)[0]

    def _execute(self, stmt: Node) -> tuple[Table, frozenset | None]:
        plan = Planner().plan(stmt)
        self.last_plan = plan
        reads: set | None = set()

        def resolve(name: str) -> Table:
            nonlocal reads
            reads = None
            return self.table(name)

        def scan(name: str, predicate: ScanPredicate
                 ) -> tuple[Table, ScanReport] | None:
            nonlocal reads
            pruned = self.scan_table(name, predicate)
            if pruned is not None and reads is not None:
                scanned = pruned[1].reads
                reads = None if scanned is None else reads | scanned
            return pruned

        executor = Executor(resolve, self._udfs, columnar=self._columnar,
                            plan=plan, scan_table=scan)
        table = executor.execute(stmt)
        return table, None if reads is None else frozenset(reads)

    def create_temp_table(self, name: str, query: str) -> Table:
        """Run a query and save its result under ``name`` (session temp table)."""
        result = self.sql(query)
        self.register(name, result)
        return result

    def explain(self, query: str) -> str:
        """Render the physical plan of a query, with actuals.

        Executes the query (EXPLAIN ANALYZE semantics): every stage that
        ran shows its actual rows, every engine choice the engine that
        ran, and scans of scannable providers the chunks scanned/pruned
        and the series subset.
        """
        stmt = parse(query)
        if self._optimize:
            stmt = optimize(stmt)
        self.execute_ast(stmt)
        assert self.last_plan is not None
        return self.last_plan.render()
