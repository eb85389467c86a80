"""Typed columns backing :class:`repro.dataframe.ColumnTable`.

The paper's preprocessing pipeline (Sec. III-E) manipulates job tables with
a mix of continuous measurements (GPU utilisation, runtime, power) and
categorical attributes (user, GPU type, framework).  pandas is not a
dependency of this project, so we provide a small, numpy-backed column
model with exactly the operations the pipeline needs:

* :class:`NumericColumn` — float64 storage, NaN as the missing marker.
* :class:`CategoricalColumn` — dictionary-encoded strings (int32 codes into
  a category list, ``-1`` as the missing marker).
* :class:`BooleanColumn` — bool storage without missing values.

All columns are immutable in length; element-wise operations return numpy
arrays or new columns rather than mutating in place, which keeps views
cheap (see the optimisation guide: prefer views over copies).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

__all__ = [
    "Column",
    "NumericColumn",
    "CategoricalColumn",
    "BooleanColumn",
    "column_from_values",
]

#: Sentinel strings treated as missing when ingesting raw (e.g. CSV) data.
#: Deliberately does NOT include "none": "GPU Type = None" is a legitimate
#: categorical value in the traces (an unspecified GPU-type request).
_NA_STRINGS = frozenset({"", "na", "nan", "null"})


def _is_missing(value: Any) -> bool:
    """Return True if *value* represents a missing entry."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str) and value.strip().lower() in _NA_STRINGS:
        return True
    return False


class Column:
    """Abstract base class for a single, fixed-length, typed column."""

    __slots__ = ()

    #: short type tag used by the CSV round-trip and repr ("num"/"cat"/"bool")
    kind: str = "abstract"

    def __len__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_list(self) -> list:
        """Materialise the column as a list of Python objects (None for NA)."""
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with rows gathered at *indices*."""
        raise NotImplementedError

    def mask(self, keep: np.ndarray) -> "Column":
        """Return a new column with only rows where boolean *keep* is True."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (len(self),):
            raise ValueError(
                f"mask length {keep.shape} does not match column length {len(self)}"
            )
        return self.take(np.flatnonzero(keep))

    def isna(self) -> np.ndarray:
        """Boolean array marking missing entries."""
        raise NotImplementedError

    # -- comparisons used by ColumnTable.filter -------------------------------
    def equals_scalar(self, value: Any) -> np.ndarray:
        """Element-wise equality against a scalar (NA never equal)."""
        raise NotImplementedError


class NumericColumn(Column):
    """Float64 column; ``NaN`` marks missing values."""

    __slots__ = ("values",)
    kind = "num"

    def __init__(self, values: Iterable[float] | np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("NumericColumn requires a 1-D sequence")
        self.values = arr

    def __len__(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return f"NumericColumn(n={len(self)})"

    def to_list(self) -> list:
        return [None if math.isnan(v) else float(v) for v in self.values]

    def take(self, indices: np.ndarray) -> "NumericColumn":
        return NumericColumn(self.values[np.asarray(indices, dtype=np.intp)])

    def isna(self) -> np.ndarray:
        return np.isnan(self.values)

    def equals_scalar(self, value: Any) -> np.ndarray:
        if _is_missing(value):
            return np.zeros(len(self), dtype=bool)
        out = self.values == float(value)
        out[np.isnan(self.values)] = False
        return out

    # numeric reductions ignore NaN, matching the trace-analysis semantics of
    # "statistics over the jobs that reported this metric".
    def min(self) -> float:
        return float(np.nanmin(self.values))

    def max(self) -> float:
        return float(np.nanmax(self.values))

    def mean(self) -> float:
        return float(np.nanmean(self.values))

    def sum(self) -> float:
        return float(np.nansum(self.values))

    def quantile(self, q: float | Sequence[float]) -> np.ndarray:
        return np.nanquantile(self.values, q)


class CategoricalColumn(Column):
    """Dictionary-encoded string column.

    Storage is a pair ``(codes, categories)`` where ``codes`` is an int32
    array indexing into the ``categories`` list and ``-1`` encodes a missing
    value.  This mirrors the representation used downstream by the
    transactional encoder, so conversion into items is a cheap integer
    remap rather than a string scan.
    """

    __slots__ = ("codes", "categories", "_index")
    kind = "cat"

    def __init__(self, codes: np.ndarray, categories: Sequence[str]):
        codes = np.asarray(codes, dtype=np.int32)
        if codes.ndim != 1:
            raise ValueError("codes must be 1-D")
        categories = list(categories)
        if len(set(categories)) != len(categories):
            raise ValueError("categories must be unique")
        if codes.size and (codes.max(initial=-1) >= len(categories) or codes.min(initial=0) < -1):
            raise ValueError("codes out of range for categories")
        self.codes = codes
        self.categories = categories
        self._index = {c: i for i, c in enumerate(categories)}

    @classmethod
    def from_values(cls, values: Iterable[Any]) -> "CategoricalColumn":
        """Build from raw values, interning each distinct non-missing string."""
        categories: list[str] = []
        index: dict[str, int] = {}
        codes: list[int] = []
        for v in values:
            if _is_missing(v):
                codes.append(-1)
                continue
            s = str(v)
            code = index.get(s)
            if code is None:
                code = len(categories)
                index[s] = code
                categories.append(s)
            codes.append(code)
        return cls(np.asarray(codes, dtype=np.int32), categories)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __repr__(self) -> str:
        return f"CategoricalColumn(n={len(self)}, n_categories={len(self.categories)})"

    def to_list(self) -> list:
        cats = self.categories
        return [None if c < 0 else cats[c] for c in self.codes]

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        return CategoricalColumn(
            self.codes[np.asarray(indices, dtype=np.intp)], self.categories
        )

    def isna(self) -> np.ndarray:
        return self.codes < 0

    def equals_scalar(self, value: Any) -> np.ndarray:
        if _is_missing(value):
            return np.zeros(len(self), dtype=bool)
        code = self._index.get(str(value))
        if code is None:
            return np.zeros(len(self), dtype=bool)
        return self.codes == code

    def value_counts(self, dropna: bool = True) -> dict[str, int]:
        """Counts per category, most frequent first."""
        counts = np.bincount(self.codes[self.codes >= 0], minlength=len(self.categories))
        out = {
            self.categories[i]: int(counts[i])
            for i in np.argsort(-counts, kind="stable")
            if counts[i] > 0
        }
        if not dropna:
            n_na = int((self.codes < 0).sum())
            if n_na:
                out[None] = n_na  # type: ignore[index]
        return out

    def map_categories(self, mapping: dict[str, str]) -> "CategoricalColumn":
        """Relabel categories via *mapping* (identity for unmapped labels).

        Used by the preprocessing step that merges rare model names into
        families ("resnet"/"vgg"/"inception" → "CV", Sec. III-E).
        """
        new_categories: list[str] = []
        new_index: dict[str, int] = {}
        remap = np.empty(len(self.categories), dtype=np.int32)
        for i, cat in enumerate(self.categories):
            label = mapping.get(cat, cat)
            code = new_index.get(label)
            if code is None:
                code = len(new_categories)
                new_index[label] = code
                new_categories.append(label)
            remap[i] = code
        new_codes = np.where(self.codes >= 0, remap[np.clip(self.codes, 0, None)], -1)
        return CategoricalColumn(new_codes.astype(np.int32), new_categories)


class BooleanColumn(Column):
    """Plain boolean column (no missing values)."""

    __slots__ = ("values",)
    kind = "bool"

    def __init__(self, values: Iterable[bool] | np.ndarray):
        arr = np.asarray(values, dtype=bool)
        if arr.ndim != 1:
            raise ValueError("BooleanColumn requires a 1-D sequence")
        self.values = arr

    def __len__(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return f"BooleanColumn(n={len(self)})"

    def to_list(self) -> list:
        return [bool(v) for v in self.values]

    def take(self, indices: np.ndarray) -> "BooleanColumn":
        return BooleanColumn(self.values[np.asarray(indices, dtype=np.intp)])

    def isna(self) -> np.ndarray:
        return np.zeros(len(self), dtype=bool)

    def equals_scalar(self, value: Any) -> np.ndarray:
        return self.values == bool(value)


def column_from_values(values: Sequence[Any]) -> Column:
    """Infer a column type from raw Python values.

    Inference order mirrors CSV ingestion: all-boolean → BooleanColumn;
    all numeric (or missing) → NumericColumn; otherwise CategoricalColumn.
    """
    non_missing = [v for v in values if not _is_missing(v)]

    def _as_bool(v: Any) -> bool | None:
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        if isinstance(v, str) and v.strip().lower() in ("true", "false"):
            return v.strip().lower() == "true"
        return None

    bools = [_as_bool(v) for v in non_missing]
    if non_missing and all(b is not None for b in bools):
        if any(_is_missing(v) for v in values):
            # promote to numeric so NaN can represent the hole
            return NumericColumn(
                [math.nan if _is_missing(v) else float(_as_bool(v)) for v in values]  # type: ignore[arg-type]
            )
        return BooleanColumn([_as_bool(v) for v in values])  # type: ignore[list-item]

    def _as_float(v: Any) -> float | None:
        if isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool):
            return float(v)
        if isinstance(v, str):
            try:
                return float(v)
            except ValueError:
                return None
        return None

    floats = [_as_float(v) for v in non_missing]
    if non_missing and all(f is not None for f in floats):
        return NumericColumn(
            [math.nan if _is_missing(v) else _as_float(v) for v in values]  # type: ignore[misc]
        )
    return CategoricalColumn.from_values(values)
