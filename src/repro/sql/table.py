"""Relational table model for the SQL substrate.

A :class:`Table` has named columns and rows of Python values.  Cells may be
``None`` (SQL NULL), numbers, strings, lists (the result of ``SPLIT``), or
dictionaries — the ``tag`` map column of the paper's ``tsdb`` table and the
``v`` map of the Feature Family Table (Figure 4) are dict-valued cells
accessed with ``tag['pipeline_name']`` subscripts.

Tables can also be built *columnar* via :meth:`Table.from_columns`: the
column vectors (numpy arrays or plain sequences) are stored as-is and the
row tuples are materialised lazily on first access to ``.rows``.  Bulk
producers — the tsdb adapter — build numpy columns directly and skip the per-observation tuple explosion entirely
until (unless) a row-oriented consumer needs it; ``column()`` reads are
served from the stored vectors either way.

A column whose cells repeat a few distinct objects — the ``tsdb``
table's ``metric_name`` and ``tag`` are per-series constants — is stored
as a :class:`DictColumn`: integer codes into a small dictionary.  It is
a column vector like any other (gather, mask and slice touch only the
codes) and decodes to the *same* cell objects wherever cells are asked
for (``.rows``, ``column()``), so row-oriented consumers cannot tell.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.sql.errors import SchemaError

Row = tuple

_MISSING = object()


class DictColumn:
    """A dictionary-encoded column vector: cell ``i`` is ``values[codes[i]]``.

    ``values`` is the dictionary — a 1-D numpy array (object-typed for
    strings/maps/None) that may hold duplicates and entries no code
    refers to; ``codes`` is an integer vector.  Selecting rows
    (boolean mask, index array or slice) shares the dictionary and
    copies codes only.  :meth:`decode` is the one place the cells are
    gathered, so every cell of one dictionary entry is the same Python
    object — rows of one series keep sharing one ``tag`` dict.
    """

    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values: np.ndarray) -> None:
        self.codes = codes
        self.values = values

    def __len__(self) -> int:
        return self.codes.size

    @property
    def dtype(self) -> np.dtype:
        """The cells' dtype — the dictionary's."""
        return self.values.dtype

    def __getitem__(self, selector) -> "DictColumn":
        return DictColumn(self.codes[selector], self.values)

    def decode(self) -> np.ndarray:
        """The flat column: one dictionary gather."""
        return self.values[self.codes]

    def tolist(self) -> list[Any]:
        return self.decode().tolist()


class Table:
    """An ordered bag of rows with named columns."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Any]] = ()):
        self.columns: list[str] = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column names: {self.columns}")
        self._rows: list[Row] | None = []
        self._coldata: list[Any] | None = None
        self._nrows = 0
        width = len(self.columns)
        for row in rows:
            tup = tuple(row)
            if len(tup) != width:
                raise SchemaError(
                    f"row width {len(tup)} does not match {width} columns"
                )
            self._rows.append(tup)
        self._nrows = len(self._rows)
        self._index: dict[str, int] = {c: i for i, c in enumerate(self.columns)}

    @property
    def rows(self) -> list[Row]:
        """Row tuples; materialised lazily for columnar tables."""
        if self._rows is None:
            self._rows = self._materialise_rows()
        return self._rows

    def _materialise_rows(self) -> list[Row]:
        cells = [_column_cells(col) for col in self._coldata]
        if not cells:
            return []
        return list(zip(*cells))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(cls, records: Iterable[Mapping[str, Any]],
                   columns: Sequence[str] | None = None) -> "Table":
        """Build a table from mapping records; missing keys become NULL."""
        records = list(records)
        if columns is None:
            seen: dict[str, None] = {}
            for record in records:
                for key in record:
                    seen.setdefault(key, None)
            columns = list(seen)
        rows = [tuple(record.get(col) for col in columns) for record in records]
        return cls(columns, rows)

    @classmethod
    def from_columns(cls, columns: Sequence[str],
                     data: Sequence[Sequence[Any] | np.ndarray]) -> "Table":
        """Build a table from column vectors without materialising rows.

        ``data`` holds one vector (numpy array, list, or tuple) per
        column name, all of equal length.  The vectors are stored as-is;
        ``.rows`` converts them to Python-valued row tuples on first
        access (numpy columns via ``tolist``, so cells are plain
        ``int``/``float`` exactly as a row-built table would hold).

        Column-backed tables are what the columnar SQL executor fast-
        paths: keep numeric columns as int64/float64 numpy arrays so
        WHERE predicates compile to masks and aggregates to segmented
        reductions.  :meth:`column_vectors`, :meth:`gather` and
        :meth:`slice_rows` operate on the vectors directly; the caller
        must not mutate a vector after handing it over (results and
        caches alias it zero-copy).
        """
        names = list(columns)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names: {names}")
        if len(data) != len(names):
            raise SchemaError(
                f"{len(data)} column vectors for {len(names)} columns"
            )
        lengths = {len(col) for col in data}
        if len(lengths) > 1:
            raise SchemaError(
                f"column vectors have unequal lengths: {sorted(lengths)}"
            )
        table = cls.__new__(cls)
        table.columns = names
        table._rows = None
        table._coldata = list(data)
        table._nrows = lengths.pop() if lengths else 0
        table._index = {c: i for i, c in enumerate(names)}
        return table

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Table":
        """An empty table with the given schema."""
        return cls(columns, [])

    def is_materialised(self) -> bool:
        """True once row tuples exist (always true for row-built tables)."""
        return self._rows is not None

    def column_vectors(self) -> "list[np.ndarray | DictColumn] | None":
        """Normalised per-column numpy vectors, or None for row-built tables.

        This is the columnar executor's entry point to ``_coldata``:
        numpy and dictionary-encoded columns are returned as stored
        (zero-copy, never decoded); list/tuple columns are wrapped in
        object arrays so boolean-mask gathers work uniformly.  The
        normalised vectors are cached back into ``_coldata`` so
        repeated scans pay the wrapping once.  Cell
        values observed through a vector are exactly the cells ``.rows``
        would materialise (``_column_cells`` applies the same
        conversion).
        """
        if self._coldata is None:
            return None
        for i, col in enumerate(self._coldata):
            if not isinstance(col, (np.ndarray, DictColumn)):
                self._coldata[i] = _as_object_array(list(col))
        return list(self._coldata)

    def gather(self, selector: np.ndarray) -> "Table":
        """Rows selected by a boolean mask or integer index array.

        Library-level counterpart of the columnar executor's internal
        mask application, for callers that compute masks over
        :meth:`column_vectors` themselves (e.g.
        ``table.gather(np.asarray(table.column("value")) > 0)``).
        Stays columnar for column-backed tables (each vector is gathered
        with one numpy fancy-index); row-built tables fall back to a
        Python row gather.  Row order follows the selector.  Dictionary
        columns that share one code vector (the tsdb ``metric_name`` and
        ``tag``) still share one after the gather.
        """
        if self._coldata is not None:
            taken: dict[int, np.ndarray] = {}

            def take(col):
                if not isinstance(col, DictColumn):
                    return col[selector]
                codes = taken.get(id(col.codes))
                if codes is None:
                    codes = taken[id(col.codes)] = col.codes[selector]
                return DictColumn(codes, col.values)

            return Table.from_columns(
                self.columns, [take(col) for col in self.column_vectors()])
        selector = np.asarray(selector)
        if selector.dtype == bool:
            selector = np.flatnonzero(selector)
        rows = [self.rows[i] for i in selector.tolist()]
        return Table(self.columns, rows)

    def slice_rows(self, start: int | None, stop: int | None) -> "Table":
        """Contiguous row slice; zero-copy views for columnar tables."""
        if self._rows is None:
            return Table.from_columns(
                self.columns, [col[start:stop] for col in self._coldata])
        return Table(self.columns, self.rows[start:stop])

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows) if self._rows is not None else self._nrows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Table(columns={self.columns}, rows={len(self)})"

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column_index(self, name: str) -> int:
        """Index of a column by name (case-sensitive, then -insensitive)."""
        idx = self._index.get(name)
        if idx is not None:
            return idx
        lowered = name.lower()
        matches = [i for i, c in enumerate(self.columns) if c.lower() == lowered]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise SchemaError(f"ambiguous column {name!r}")
        raise SchemaError(
            f"unknown column {name!r}; available: {self.columns}"
        )

    def column(self, name: str) -> list[Any]:
        """Return all values of one column as a list.

        Columnar tables serve this from the stored vector without
        materialising row tuples.
        """
        idx = self.column_index(name)
        if self._rows is None:
            return _column_cells(self._coldata[idx])
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by column names."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    # ------------------------------------------------------------------
    # Relational helpers used by the executor and by library code
    # ------------------------------------------------------------------
    def select_columns(self, names: Sequence[str]) -> "Table":
        """Project onto a subset of columns (stays columnar when lazy)."""
        indexes = [self.column_index(n) for n in names]
        if self._rows is None:
            return Table.from_columns(
                list(names), [self._coldata[i] for i in indexes])
        rows = [tuple(row[i] for i in indexes) for row in self.rows]
        return Table(list(names), rows)

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """Keep rows where ``predicate(row_dict)`` is true."""
        kept = [row for row in self.rows
                if predicate(dict(zip(self.columns, row)))]
        return Table(self.columns, kept)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a copy with some columns renamed."""
        columns = [mapping.get(c, c) for c in self.columns]
        if self._rows is None:
            return Table.from_columns(columns, self._coldata)
        return Table(columns, self.rows)

    def prefixed(self, prefix: str) -> "Table":
        """Return a copy with every column prefixed (``alias.column``)."""
        columns = [f"{prefix}.{c}" for c in self.columns]
        if self._rows is None:
            return Table.from_columns(columns, self._coldata)
        return Table(columns, self.rows)

    def union_all(self, other: "Table") -> "Table":
        """Concatenate rows; schemas are matched by position.

        Mirrors Spark SQL's UNION semantics used in listing 5: the paper
        unions feature-family tables that share the normalised schema.
        """
        if len(other.columns) != len(self.columns):
            raise SchemaError(
                f"UNION arity mismatch: {len(self.columns)} vs {len(other.columns)}"
            )
        return Table(self.columns, self.rows + other.rows)

    def distinct(self) -> "Table":
        """Remove duplicate rows (order of first occurrence preserved)."""
        seen: set = set()
        out: list[Row] = []
        for row in self.rows:
            key = _hashable_row(row)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return Table(self.columns, out)

    def sorted_by(self, key: Callable[[Row], Any], reverse: bool = False) -> "Table":
        """Stable sort by a row-key function."""
        return Table(self.columns, sorted(self.rows, key=key, reverse=reverse))

    def limit(self, n: int) -> "Table":
        """First ``n`` rows (stays columnar when lazy)."""
        if self._rows is None:
            return self.slice_rows(None, n)
        return Table(self.columns, self.rows[:n])

    def head_text(self, n: int = 10, max_width: int = 24) -> str:
        """Simple fixed-width text rendering for examples and debugging."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                text = f"{value:.4g}"
            else:
                text = str(value)
            if len(text) > max_width:
                text = text[: max_width - 1] + "…"
            return text

        shown = self.rows[:n]
        cells = [[fmt(c) for c in self.columns]]
        cells.extend([fmt(v) for v in row] for row in shown)
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = []
        for r_i, row in enumerate(cells):
            line = "  ".join(v.ljust(widths[i]) for i, v in enumerate(row))
            lines.append(line.rstrip())
            if r_i == 0:
                lines.append("  ".join("-" * w for w in widths))
        if len(self.rows) > n:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)


def _column_cells(column: Any) -> list[Any]:
    """One column vector as a list of plain Python cell values."""
    if isinstance(column, (np.ndarray, DictColumn)):
        return column.tolist()
    return list(column)


def _as_object_array(cells: list[Any]) -> np.ndarray:
    """Wrap arbitrary Python cells in a 1-D object array.

    ``np.asarray`` would try to broadcast list/tuple cells into extra
    dimensions; pre-allocating the object array keeps every cell — dict,
    list, None — as one element.
    """
    out = np.empty(len(cells), dtype=object)
    for i, cell in enumerate(cells):
        out[i] = cell
    return out


def _hashable_row(row: Row) -> tuple:
    """Convert a row to a hashable key (dicts/lists become tuples)."""
    def conv(value: Any) -> Any:
        if isinstance(value, dict):
            return tuple(sorted((k, conv(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(conv(v) for v in value)
        return value
    return tuple(conv(v) for v in row)
