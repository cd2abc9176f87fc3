"""Unit tests for the columnar Table construction path."""

import numpy as np
import pytest

from repro.sql.errors import SchemaError
from repro.sql.table import DictColumn, Table


def _columnar():
    return Table.from_columns(
        ["t", "name", "v"],
        [np.arange(4, dtype=np.int64),
         ["a", "b", "a", "b"],
         np.asarray([0.5, 1.5, 2.5, 3.5])])


class TestFromColumns:
    def test_len_without_materialising(self):
        table = _columnar()
        assert len(table) == 4
        assert not table.is_materialised()

    def test_rows_materialise_with_python_cells(self):
        table = _columnar()
        assert table.rows == [(0, "a", 0.5), (1, "b", 1.5),
                              (2, "a", 2.5), (3, "b", 3.5)]
        assert type(table.rows[0][0]) is int
        assert type(table.rows[0][2]) is float
        assert table.is_materialised()

    def test_equals_row_built_table(self):
        rows = [(0, "a", 0.5), (1, "b", 1.5), (2, "a", 2.5), (3, "b", 3.5)]
        assert _columnar() == Table(["t", "name", "v"], rows)

    def test_column_reads_skip_materialisation(self):
        table = _columnar()
        assert table.column("name") == ["a", "b", "a", "b"]
        assert table.column("v") == [0.5, 1.5, 2.5, 3.5]
        assert not table.is_materialised()

    def test_select_rename_prefix_stay_columnar(self):
        table = _columnar()
        projected = table.select_columns(["v", "t"])
        renamed = table.rename({"v": "value"})
        prefixed = table.prefixed("x")
        assert not table.is_materialised()
        assert not projected.is_materialised()
        assert projected.rows == [(0.5, 0), (1.5, 1), (2.5, 2), (3.5, 3)]
        assert renamed.columns == ["t", "name", "value"]
        assert renamed.rows == table.rows
        assert prefixed.columns == ["x.t", "x.name", "x.v"]

    def test_row_api_interoperates(self):
        table = _columnar()
        filtered = table.filter(lambda row: row["name"] == "a")
        assert filtered.rows == [(0, "a", 0.5), (2, "a", 2.5)]
        assert table.union_all(table.limit(1)).rows[-1] == (0, "a", 0.5)
        assert list(iter(table))[0] == (0, "a", 0.5)

    def test_empty_columns(self):
        table = Table.from_columns(["a", "b"], [[], np.empty(0)])
        assert len(table) == 0
        assert table.rows == []

    def test_unequal_lengths_rejected(self):
        with pytest.raises(SchemaError, match="unequal lengths"):
            Table.from_columns(["a", "b"], [[1, 2], [1.0]])

    def test_wrong_vector_count_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_columns(["a", "b"], [[1, 2]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Table.from_columns(["a", "a"], [[1], [2]])

    def test_object_cells_pass_through(self):
        tags = {"host": "h1"}
        col = np.empty(2, dtype=object)
        col[:] = [tags, tags]
        table = Table.from_columns(["tag"], [col])
        assert table.rows == [(tags,), (tags,)]
        assert table.rows[0][0] is tags

    def test_row_built_tables_unchanged(self):
        table = Table(["a"], [(1,), (2,)])
        assert table.is_materialised()
        assert len(table) == 2


class TestDictColumn:
    """A dictionary-encoded column is a column vector like any other."""

    @staticmethod
    def _encoded():
        tags = [{"host": "h0"}, {}, None]
        codes = np.asarray([0, 1, 0, 2, 1], dtype=np.int32)
        return tags, Table.from_columns(
            ["t", "tag", "name"],
            [np.arange(5, dtype=np.int64),
             DictColumn(codes, np.array(tags, dtype=object)),
             DictColumn(codes, np.array(["a", "b", "unused"], dtype=object))])

    def test_cells_are_the_dictionary_objects(self):
        tags, table = self._encoded()
        assert len(table) == 5
        assert table.column("name") == ["a", "b", "a", "unused", "b"]
        assert table.rows[3] == (3, None, "unused")
        for cells in (table.column("tag"), [row[1] for row in table.rows]):
            assert [tags.index(c) for c in cells] == [0, 1, 0, 2, 1]
            assert cells[0] is cells[2] is tags[0]

    def test_equals_the_flat_build(self):
        tags, table = self._encoded()
        flat = Table(["t", "tag", "name"],
                     [(i, tags[c], ["a", "b", "unused"][c])
                      for i, c in enumerate([0, 1, 0, 2, 1])])
        assert table == flat

    def test_relational_helpers_keep_the_column_encoded(self, monkeypatch):
        _, table = self._encoded()
        decodes = []
        real = DictColumn.decode
        monkeypatch.setattr(
            DictColumn, "decode",
            lambda self: decodes.append(len(self)) or real(self))
        derived = {
            "mask": table.gather(np.asarray([True, False, True, True, False])),
            "index": table.gather(np.asarray([4, 0])),
            "slice": table.slice_rows(1, 4),
            "limit": table.limit(2),
            "select": table.select_columns(["name", "tag"]),
            "rename": table.rename({"tag": "labels"}),
            "prefix": table.prefixed("x"),
        }
        dictionaries = {id(v.values) for v in table.column_vectors()[1:]}
        for how, out in derived.items():
            encoded = [v for v in out.column_vectors()
                       if isinstance(v, DictColumn)]
            assert {id(v.values) for v in encoded} == dictionaries, how
            assert not out.is_materialised(), how
        assert table.column_vectors()[1] is table.column_vectors()[1]
        assert decodes == []                 # nothing above read a cell
        assert derived["index"].rows == [(4, {}, "b"), (0, {"host": "h0"}, "a")]
        assert derived["slice"].column("name") == ["b", "a", "unused"]
        assert decodes == [2, 2, 3]          # one gather per column read
