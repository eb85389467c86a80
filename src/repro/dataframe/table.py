"""A minimal, numpy-backed columnar table.

:class:`ColumnTable` is the in-memory representation of a merged job trace
(Sec. III-E of the paper: "our first effort was to merge all the features
into a single file").  It deliberately implements only the operations the
analysis pipeline needs — column selection, row filtering, appending
derived columns — with no index machinery.

Rows are never represented as objects; all operations are vectorised over
columns, following the numpy optimisation guidance (vectorise loops, use
views not copies).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from .column import (
    BooleanColumn,
    CategoricalColumn,
    Column,
    NumericColumn,
    column_from_values,
)

__all__ = ["ColumnTable"]


class ColumnTable:
    """An ordered mapping of column name → :class:`Column`, equal lengths."""

    def __init__(self, columns: Mapping[str, Column] | None = None):
        self._columns: dict[str, Column] = {}
        self._length: int | None = None
        if columns:
            for name, col in columns.items():
                self.add_column(name, col)

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[Any]]) -> "ColumnTable":
        """Build a table from a mapping of name → raw value sequence.

        Column types are inferred per :func:`column_from_values`; numpy
        arrays of numeric or boolean dtype are wrapped without copying.
        """
        table = cls()
        for name, values in data.items():
            if isinstance(values, Column):
                table.add_column(name, values)
            elif isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
                table.add_column(name, NumericColumn(values.astype(np.float64, copy=False)))
            elif isinstance(values, np.ndarray) and values.dtype.kind == "b":
                table.add_column(name, BooleanColumn(values))
            else:
                table.add_column(name, column_from_values(list(values)))
        return table

    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]]) -> "ColumnTable":
        """Build from a list of dict rows; missing keys become NA."""
        names: list[str] = []
        seen = set()
        for rec in records:
            for key in rec:
                if key not in seen:
                    seen.add(key)
                    names.append(key)
        data = {name: [rec.get(name) for rec in records] for name in names}
        return cls.from_dict(data)

    # -- basic protocol --------------------------------------------------------
    def __len__(self) -> int:
        return self._length or 0

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}; have {list(self._columns)}") from None

    def __repr__(self) -> str:
        return f"ColumnTable(n_rows={len(self)}, columns={list(self._columns)})"

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    @property
    def n_rows(self) -> int:
        return len(self)

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    def items(self) -> Iterable[tuple[str, Column]]:
        return self._columns.items()

    # -- mutation (column-level only) -------------------------------------------
    def add_column(self, name: str, column: Column | Sequence[Any]) -> None:
        """Attach *column* under *name*, replacing any existing column."""
        if not isinstance(column, Column):
            column = column_from_values(list(column))
        if self._length is None:
            self._length = len(column)
        elif len(column) != self._length:
            raise ValueError(
                f"column {name!r} has length {len(column)}, table has {self._length}"
            )
        self._columns[name] = column

    def select(self, names: Sequence[str]) -> "ColumnTable":
        """Return a new table with only the given columns, in order."""
        return ColumnTable({n: self[n] for n in names})

    def rename(self, mapping: Mapping[str, str]) -> "ColumnTable":
        """Return a new table with columns renamed via *mapping*."""
        return ColumnTable({mapping.get(n, n): c for n, c in self._columns.items()})

    # -- row-level access ---------------------------------------------------------
    def row(self, i: int) -> dict[str, Any]:
        """Materialise row *i* as a dict (None for NA). O(n_columns)."""
        if not 0 <= i < len(self):
            raise IndexError(f"row {i} out of range for table of {len(self)} rows")
        out: dict[str, Any] = {}
        for name, col in self._columns.items():
            if isinstance(col, CategoricalColumn):
                code = int(col.codes[i])
                out[name] = None if code < 0 else col.categories[code]
            elif isinstance(col, NumericColumn):
                v = float(col.values[i])
                out[name] = None if np.isnan(v) else v
            elif isinstance(col, BooleanColumn):
                out[name] = bool(col.values[i])
            else:  # pragma: no cover - no other kinds exist
                out[name] = col.to_list()[i]
        return out

    # -- selection --------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "ColumnTable":
        """Gather rows at *indices* into a new table."""
        idx = np.asarray(indices, dtype=np.intp)
        return ColumnTable({n: c.take(idx) for n, c in self._columns.items()})

    def filter_mask(self, keep: np.ndarray) -> "ColumnTable":
        """Keep rows where boolean *keep* is True."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (len(self),):
            raise ValueError("mask length mismatch")
        return self.take(np.flatnonzero(keep))

    def dropna(self, names: Sequence[str] | None = None) -> "ColumnTable":
        """Drop rows with NA in any of *names* (default: all columns).

        The paper applies this when studying workload-type rules: "we have
        filtered out the jobs whose model type label is NaN" (Sec. IV-D).
        """
        names = list(names) if names is not None else self.column_names
        keep = np.ones(len(self), dtype=bool)
        for name in names:
            keep &= ~self[name].isna()
        return self.filter_mask(keep)

    def head(self, n: int) -> "ColumnTable":
        """First *n* rows."""
        return self.take(np.arange(min(n, len(self))))

    def copy(self) -> "ColumnTable":
        """Shallow copy (columns are shared; they are treated as immutable)."""
        return ColumnTable(dict(self._columns))

    def fingerprint(self) -> str:
        """Content digest over column names, types and values.

        Two tables with identical schema and cell contents share a
        fingerprint regardless of how they were built — the key the
        preprocess result cache uses.
        Computed fresh on every call (tables are mutable via
        ``add_column``), so callers should hash once per lookup.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(str(len(self)).encode("utf-8"))
        for name, col in self._columns.items():
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
            h.update(col.kind.encode("utf-8"))
            if isinstance(col, CategoricalColumn):
                h.update(np.ascontiguousarray(col.codes).tobytes())
                for cat in col.categories:
                    h.update(cat.encode("utf-8"))
                    h.update(b"\x1f")
            else:
                h.update(np.ascontiguousarray(col.values).tobytes())
        return h.hexdigest()
