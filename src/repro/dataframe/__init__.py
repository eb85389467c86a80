"""Minimal columnar table substrate (pandas substitute).

The analysis pipeline needs a small relational core: typed columns, a
column table, CSV io and value counts.  Everything is numpy-backed and
vectorised; see the submodules for details.
"""

from .column import (
    BooleanColumn,
    CategoricalColumn,
    Column,
    NumericColumn,
    column_from_values,
)
from .io import read_csv, write_csv
from .ops import value_counts
from .table import ColumnTable

__all__ = [
    "Column",
    "NumericColumn",
    "CategoricalColumn",
    "BooleanColumn",
    "column_from_values",
    "ColumnTable",
    "read_csv",
    "write_csv",
    "value_counts",
]
