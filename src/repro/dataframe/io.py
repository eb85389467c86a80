"""CSV ingestion and export for :class:`ColumnTable`.

Production traces (PAI, Philly, the open-sourced SuperCloud dataset) ship
as CSV files; the preprocessing pipeline needs a typed round-trip so that
synthetic traces written to disk can be re-loaded as if they were the
original logs.  Type inference matches :func:`column_from_values`.
"""

from __future__ import annotations

import csv
import os
from typing import TextIO

from .column import CategoricalColumn, NumericColumn
from .table import ColumnTable

__all__ = ["read_csv", "write_csv"]


def read_csv(path: str | os.PathLike) -> ColumnTable:
    """Load a CSV file into a typed :class:`ColumnTable`."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return _read(fh)


def _read(fh: TextIO) -> ColumnTable:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        return ColumnTable()
    if len(set(header)) != len(header):
        raise ValueError(f"duplicate column names in CSV header: {header}")
    columns: list[list] = [[] for _ in header]
    for row_num, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"row {row_num} has {len(row)} fields, expected {len(header)}"
            )
        for values, cell in zip(columns, row):
            values.append(None if cell == "" else cell)
    return ColumnTable.from_dict(dict(zip(header, columns)))


def write_csv(table: ColumnTable, path: str | os.PathLike) -> None:
    """Write a table to a CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write(table, fh)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _write(table: ColumnTable, fh: TextIO) -> None:
    writer = csv.writer(fh)
    names = table.column_names
    writer.writerow(names)
    if not names:
        return
    lists = {}
    for name in names:
        col = table[name]
        if isinstance(col, (NumericColumn, CategoricalColumn)):
            lists[name] = col.to_list()
        else:
            lists[name] = col.to_list()
    for i in range(len(table)):
        writer.writerow([_format_cell(lists[name][i]) for name in names])
