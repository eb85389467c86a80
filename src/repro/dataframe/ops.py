"""Relational operations over :class:`ColumnTable`.

:func:`value_counts` ranks a key column's labels by frequency (the trace
statistics count jobs per user with it) using numpy ``bincount`` rather
than per-row Python loops.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .column import BooleanColumn, CategoricalColumn, NumericColumn
from .table import ColumnTable

__all__ = ["value_counts"]


def _key_codes(table: ColumnTable, key: str) -> tuple[np.ndarray, list[Any]]:
    """Return (int codes, labels) for a key column; NA gets its own code -1."""
    col = table[key]
    if isinstance(col, CategoricalColumn):
        return col.codes.astype(np.int64), list(col.categories)
    if isinstance(col, NumericColumn):
        vals = col.values
        finite = ~np.isnan(vals)
        uniq = np.unique(vals[finite])
        codes = np.searchsorted(uniq, vals)
        codes = np.where(finite, codes, -1).astype(np.int64)
        return codes, [float(u) for u in uniq]
    if isinstance(col, BooleanColumn):
        return col.values.astype(np.int64), [False, True]
    raise TypeError(f"cannot group by column of kind {col.kind!r}")


def value_counts(table: ColumnTable, key: str) -> list[tuple[Any, int]]:
    """Return (label, count) pairs for *key*, most frequent first.

    Ties are broken by label order of first appearance, keeping the output
    deterministic — important because the "frequent user" cut-off in the
    preprocessing step is defined over this ranking.
    """
    codes, labels = _key_codes(table, key)
    valid = codes[codes >= 0]
    if valid.size == 0:
        return []
    counts = np.bincount(valid, minlength=len(labels))
    order = np.argsort(-counts, kind="stable")
    return [(labels[i], int(counts[i])) for i in order if counts[i] > 0]
