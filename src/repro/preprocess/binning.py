"""Discretisation of continuous job features (Sec. III-E).

The paper bins continuous attributes by **equal-frequency quartiles**:

* Bin1: [min, 25th percentile)
* Bin2: [25th, median)
* Bin3: [median, 75th percentile)
* Bin4: [75th percentile, max]

with two trace-specific refinements observed in the case studies:

* a **zero bin** — "SM Util = 0%", "GMem Used = 0GB" — because exact zeros
  are the phenomenon under study and must not be diluted into Bin1;
* a **standard-value bin** ("Std") — when a single value covers a large
  share of jobs (e.g. ~50 % of PAI jobs request exactly 600 CPU cores),
  that value becomes its own bin and the quartiles are computed over the
  remainder.

Equal-width binning is provided for the ablation the paper discusses
("this method does not work well because some features such as runtime
have long tails").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

__all__ = ["BinningSpec", "Discretizer", "equal_width_edges"]


@dataclass(frozen=True, slots=True)
class BinningSpec:
    """How one continuous feature is discretised."""

    scheme: Literal["equal_frequency", "equal_width"] = "equal_frequency"
    n_bins: int = 4
    #: label for exact zeros (e.g. "0%"); None disables the special bin
    zero_label: str | None = None
    #: label for a dominant exact value (e.g. "Std"); None disables detection
    std_label: str | None = None
    #: minimum share of (non-special) values a mode needs to become "Std"
    std_threshold: float = 0.3

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if not 0.0 < self.std_threshold <= 1.0:
            raise ValueError("std_threshold must be in (0, 1]")
        if self.scheme not in ("equal_frequency", "equal_width"):
            raise ValueError(f"unknown binning scheme {self.scheme!r}")


def _sorted_quantiles(ordered: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(values, qs)`` (its default linear method) read from
    *ordered*, the non-empty, NaN-free values sorted ascending.

    The floor and floor + 1 of each virtual index ``(n - 1) * q`` are
    direct order statistics, blended by numpy's rule — ``a + (b - a) *
    t``, or ``b - (b - a) * (1 - t)`` when ``t >= 0.5`` — so every edge
    equals ``np.quantile``'s as a float.  A sort may order tied ``0.0``
    and ``-0.0`` unlike numpy's partition; edges are read only through
    ``>=`` and :meth:`Discretizer.bin_ranges`, so zero edges come out as
    ``+0.0``.
    """
    last = ordered.size - 1
    virtual = last * qs
    below = np.floor(virtual)
    # an index at or past the last element takes the maximum; numpy marks
    # it -1, and its weight is measured from that -1 too
    below[virtual >= last] = -1
    above = np.where(below < 0, -1, below + 1).astype(np.intp)
    t = virtual - below
    a = ordered[below.astype(np.intp)]
    b = ordered[above]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out + 0.0  # -0.0 + 0.0 is +0.0


def equal_width_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Interior edges splitting [min, max] into *n_bins* equal intervals."""
    if values.size == 0:
        return np.asarray([], dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return np.asarray([], dtype=np.float64)
    return np.linspace(lo, hi, n_bins + 1)[1:-1]


class Discretizer:
    """Fitted discretiser for one feature: values → bin labels.

    ``fit`` learns the special values and edges; ``transform_codes`` maps
    a value array to a small-integer code array (``-1`` for NaN) indexing
    into :meth:`code_labels` — the columnar hot path the encoder consumes
    with a single gather per feature.  ``transform`` decodes the same
    codes into ``list[str | None]`` labels.  The fitted state is
    inspectable (``edges``,
    ``std_value``, ``bin_ranges()``) so a system operator can translate
    "Runtime = Bin1" back into seconds — the interpretability contract of
    the paper.
    """

    def __init__(self, spec: BinningSpec = BinningSpec()):
        self.spec = spec
        self.edges: np.ndarray | None = None
        self.std_value: float | None = None
        self._fit_min: float | None = None
        self._fit_max: float | None = None
        self._code_labels: list[str] | None = None

    @property
    def is_fitted(self) -> bool:
        return self.edges is not None

    def fit(self, values: Sequence[float] | np.ndarray) -> "Discretizer":
        """Learn special bins and quantile/width edges from *values*.

        One sort of the values serves every statistic: the Std mode is
        the first longest run (the value ``np.unique`` + ``argmax``
        picks), min and max are the two ends, and the quantile edges are
        order statistics.  Dropping zeros or the Std value by a mask
        keeps the array sorted.
        """
        ordered = np.sort(np.asarray(values, dtype=np.float64))
        ordered = ordered[: np.count_nonzero(~np.isnan(ordered))]  # NaN sorts last
        spec = self.spec

        if spec.zero_label is not None:
            ordered = ordered[ordered != 0.0]

        self.std_value = None
        if spec.std_label is not None and ordered.size:
            starts = np.flatnonzero(
                np.concatenate(([True], ordered[1:] != ordered[:-1]))
            )
            runs = np.diff(starts, append=ordered.size)
            longest = int(np.argmax(runs))
            if runs[longest] / ordered.size >= spec.std_threshold:
                self.std_value = float(ordered[starts[longest]]) + 0.0
                ordered = ordered[ordered != self.std_value]

        if ordered.size:
            self._fit_min = float(ordered[0]) + 0.0
            self._fit_max = float(ordered[-1]) + 0.0
        else:
            self._fit_min = self._fit_max = None

        if spec.scheme == "equal_frequency":
            if ordered.size:
                qs = np.linspace(0, 1, spec.n_bins + 1)[1:-1]
                # keep the *full* quantile edge list (no dedupe): when ties
                # collapse quantiles (e.g. median queue delay = 0), bins keep
                # their paper semantics — BinK is always the K-th quantile
                # interval, and collapsed bins are simply never assigned.
                edges = _sorted_quantiles(ordered, qs)
            else:
                edges = np.asarray([], dtype=np.float64)
        else:
            edges = equal_width_edges(ordered, spec.n_bins)
        self.edges = edges
        labels = [f"Bin{k + 1}" for k in range(len(edges) + 1)]
        if spec.zero_label is not None:
            labels.append(spec.zero_label)
        if self.std_value is not None and spec.std_label is not None:
            labels.append(spec.std_label)
        self._code_labels = labels
        return self

    def code_labels(self) -> list[str]:
        """Label table indexed by the codes of :meth:`transform_codes`.

        Regular bins occupy codes ``0 .. n_regular_bins()-1``; the zero
        and Std specials (when active) are reserved at the tail, and
        ``-1`` marks missing.
        """
        if self._code_labels is None:
            raise RuntimeError("Discretizer not fitted")
        return self._code_labels

    def transform_codes(self, values: Sequence[float] | np.ndarray) -> np.ndarray:
        """Map values to integer bin codes (``-1`` for NaN) — the hot path.

        Overlays are applied in ascending precedence so the special bins
        always win: raw edge-count bins, then the fit-minimum clamp
        (the minimum belongs to Bin1 even when heavy ties collapse low
        quantile edges onto it and the count lands it past them),
        then the Std bin, then the zero bin — an exact zero gets the zero
        label even when it is also the fitted minimum or the Std value —
        and finally NaN → ``-1``.
        """
        if not self.is_fitted:
            raise RuntimeError("Discretizer.transform_codes called before fit")
        arr = np.asarray(values, dtype=np.float64)
        spec = self.spec
        labels = self.code_labels()
        dtype = np.int8 if len(labels) <= np.iinfo(np.int8).max else np.int16
        # a value's bin is the number of edges <= it, as with
        # searchsorted(side="right"): a value equal to an edge goes to the
        # *upper* bin, matching the paper's half-open [lower, upper)
        # intervals with max included.  One comparison pass per edge (at
        # most n_bins - 1) is linear in rows; NaN compares false and is
        # overwritten below
        codes = np.zeros(arr.shape, dtype=dtype)
        for edge in self.edges.tolist():
            codes += arr >= edge
        if self._fit_min is not None:
            codes[arr == self._fit_min] = 0
        n_regular = len(self.edges) + 1
        if self.std_value is not None and spec.std_label is not None:
            codes[arr == self.std_value] = labels.index(spec.std_label)
        if spec.zero_label is not None:
            codes[arr == 0.0] = n_regular  # zero is always the first special
        codes[np.isnan(arr)] = -1
        return codes

    def transform(self, values: Sequence[float] | np.ndarray) -> list[str | None]:
        """Map values to labels: zero/std specials, then "Bin1".."BinK"."""
        codes = self.transform_codes(values)
        lut = np.asarray([*self.code_labels(), None], dtype=object)
        return list(lut[codes])  # code -1 indexes the trailing None

    def fit_transform(self, values: Sequence[float] | np.ndarray) -> list[str | None]:
        return self.fit(values).transform(values)

    def n_regular_bins(self) -> int:
        """Number of Bin labels the fitted edges can produce."""
        if not self.is_fitted:
            raise RuntimeError("Discretizer not fitted")
        return len(self.edges) + 1

    def bin_ranges(self) -> dict[str, tuple[float, float]]:
        """Label → (lower, upper) value range, for report footnotes.

        Regular bins use the fitted min/max of the non-special values as
        the outermost bounds; special bins map to degenerate ranges.
        """
        if not self.is_fitted:
            raise RuntimeError("Discretizer not fitted")
        out: dict[str, tuple[float, float]] = {}
        if self.spec.zero_label is not None:
            out[self.spec.zero_label] = (0.0, 0.0)
        if self.std_value is not None and self.spec.std_label is not None:
            out[self.spec.std_label] = (self.std_value, self.std_value)
        if self._fit_min is None:
            return out
        bounds = [self._fit_min, *self.edges.tolist(), self._fit_max]
        for k in range(len(bounds) - 1):
            out[f"Bin{k + 1}"] = (bounds[k], bounds[k + 1])
        return out
