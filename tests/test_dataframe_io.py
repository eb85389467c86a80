"""Unit tests for CSV ingestion/export."""

import pytest

from repro.dataframe import (
    ColumnTable,
    read_csv,
    read_csv_text,
    write_csv,
    write_csv_text,
)


class TestReadCsv:
    def test_types_inferred(self):
        t = read_csv_text("user,runtime,failed\nalice,10.5,true\nbob,,false\n")
        assert t["runtime"].to_list() == [10.5, None]
        assert t["user"].to_list() == ["alice", "bob"]
        # "true"/"false" cells parse back to booleans (round-trip support)
        assert t["failed"].to_list() == [True, False]

    def test_empty_text(self):
        assert len(read_csv_text("")) == 0

    def test_header_only(self):
        t = read_csv_text("a,b\n")
        assert t.column_names == ["a", "b"]
        assert len(t) == 0

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row 2"):
            read_csv_text("a,b\n1\n")

    def test_duplicate_header_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_csv_text("a,a\n1,2\n")

    def test_quoted_commas(self):
        t = read_csv_text('name,v\n"x, y",1\n')
        assert t["name"].to_list() == ["x, y"]


class TestRoundTrip:
    def test_text_roundtrip(self):
        t = ColumnTable.from_dict(
            {
                "user": ["alice", None, "carol"],
                "runtime": [10.0, 2.5, None],
                "ok": [True, False, True],
            }
        )
        back = read_csv_text(write_csv_text(t))
        assert back["user"].to_list() == ["alice", None, "carol"]
        assert back["runtime"].to_list() == [10.0, 2.5, None]
        # booleans survive the round trip via "true"/"false" cells
        assert back["ok"].to_list() == [True, False, True]

    def test_integral_floats_compact(self):
        text = write_csv_text(ColumnTable.from_dict({"x": [1.0, 2.5]}))
        assert "1\n" in text.replace("\r", "") and "2.5" in text

    def test_file_roundtrip(self, tmp_path):
        t = ColumnTable.from_dict({"a": [1, 2], "b": ["x", "y"]})
        path = tmp_path / "trace.csv"
        write_csv(t, path)
        back = read_csv(path)
        assert {name: col.to_list() for name, col in back.items()} == {
            "a": [1.0, 2.0], "b": ["x", "y"]
        }

    def test_empty_table_roundtrip(self):
        assert len(read_csv_text(write_csv_text(ColumnTable()))) == 0
