"""Unit tests for value counts."""

import pytest

from repro.dataframe import ColumnTable, value_counts


@pytest.fixture()
def jobs():
    return ColumnTable.from_dict(
        {
            "user": ["a", "b", "a", "c", "b", "a"],
            "runtime": [10.0, 20.0, 30.0, 5.0, None, 14.0],
            "gpus": [1, 2, 1, 4, 2, 1],
        }
    )


class TestValueCounts:
    def test_most_frequent_first(self, jobs):
        assert value_counts(jobs, "user") == [("a", 3), ("b", 2), ("c", 1)]

    def test_empty_table(self):
        t = ColumnTable.from_dict({"k": []})
        assert value_counts(t, "k") == []
