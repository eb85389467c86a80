"""Unit tests for ColumnTable."""

import numpy as np
import pytest

from repro.dataframe import ColumnTable, NumericColumn


def columns_of(table):
    return {name: column.to_list() for name, column in table.items()}


@pytest.fixture()
def table():
    return ColumnTable.from_dict(
        {
            "user": ["alice", "bob", "alice", "carol"],
            "runtime": [10.0, 20.0, None, 40.0],
            "failed": [True, False, False, True],
        }
    )


class TestConstruction:
    def test_from_dict_infers_types(self, table):
        assert table.n_rows == 4
        assert table.column_names == ["user", "runtime", "failed"]

    def test_from_records_fills_missing_keys(self):
        t = ColumnTable.from_records([{"a": 1}, {"b": "x"}])
        assert columns_of(t) == {"a": [1.0, None], "b": [None, "x"]}

    def test_length_mismatch_rejected(self):
        t = ColumnTable.from_dict({"a": [1, 2]})
        with pytest.raises(ValueError):
            t.add_column("b", [1])

    def test_numpy_numeric_wrapped_without_inference(self):
        t = ColumnTable.from_dict({"x": np.asarray([1, 2, 3])})
        assert isinstance(t["x"], NumericColumn)

    def test_missing_column_keyerror_names_candidates(self, table):
        with pytest.raises(KeyError, match="runtime"):
            table["nope"]


class TestSelection:
    def test_row_materialises_one_dict(self, table):
        assert table.row(2) == {"user": "alice", "runtime": None, "failed": False}

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(99)

    def test_filter_mask(self, table):
        sub = table.filter_mask(np.asarray([True, False, False, True]))
        assert sub["user"].to_list() == ["alice", "carol"]

    def test_dropna_specific_column(self, table):
        sub = table.dropna(["runtime"])
        assert len(sub) == 3

    def test_take_reorders(self, table):
        sub = table.take(np.asarray([3, 0]))
        assert sub["user"].to_list() == ["carol", "alice"]

    def test_head(self, table):
        assert len(table.head(2)) == 2
        assert len(table.head(10)) == 4


class TestMutationAndExport:
    def test_add_column_replaces(self, table):
        t = table.copy()
        t.add_column("runtime", [1.0, 2.0, 3.0, 4.0])
        assert t["runtime"].to_list() == [1.0, 2.0, 3.0, 4.0]
        # original untouched (copy shares columns but add replaces binding)
        assert table["runtime"].to_list()[0] == 10.0

    def test_select_and_rename(self, table):
        t = table.select(["failed", "user"]).rename({"failed": "f"})
        assert t.column_names == ["f", "user"]

    def test_iter_rows_roundtrip(self, table):
        rows = list(table.iter_rows())
        rebuilt = ColumnTable.from_records(rows)
        assert columns_of(rebuilt) == columns_of(table)

    def test_empty_table(self):
        t = ColumnTable()
        assert len(t) == 0
        assert t.column_names == []
