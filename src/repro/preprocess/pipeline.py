"""The end-to-end preprocessing pipeline of Sec. III-E.

:class:`TracePreprocessor` composes the four preprocessing stages the
paper applies to every trace before mining:

1. **semantic/categorical aggregation** — model families, activity tiers;
2. **discretisation** — quartile (or equal-width) binning with zero/Std
   special bins, via :class:`TransactionEncoder` feature specs;
3. **one-hot transactional encoding**;
4. **skew filtering** — drop items present in more than 80 % of jobs.

The result bundles the transaction database with the provenance needed
for interpretation (bin ranges, dropped items, tier assignments).

Two performance layers sit on top of the stages (DESIGN.md §9):

* every stage runs through the columnar fast paths (integer-coded
  binning, code→id gathers, per-category tier remaps) and is timed under
  the ``ingest-*`` kernels of the open stage (rendered by
  ``--profile``); the row-by-row statement of the stages they are
  tested against lives in ``tests/oracles.py``;
* results are memoised in a content-addressed LRU cache keyed by table
  fingerprint × pipeline spec, so repeated studies over the same trace
  content preprocess once (``use_cache=False`` skips it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Any

import numpy as np

from ..core.items import Item
from ..core.transactions import TransactionDatabase
from ..dataframe import CategoricalColumn, ColumnTable
from ..obs import kernel_timer
from .aggregation import ActivityTiers, apply_semantic_grouping, compute_activity_tiers
from .encoding import FeatureSpec, TransactionEncoder
from .skew import drop_skewed_items

__all__ = [
    "TierSpec",
    "GroupingSpec",
    "PreprocessResult",
    "TracePreprocessor",
    "preprocess_cache_stats",
    "clear_preprocess_cache",
]

#: preprocess results hold the working table and database: keep few
_CACHE_MAX_ENTRIES = 8


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Counter snapshot of one :class:`LRUCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_entries: int


class LRUCache:
    """Thread-safe, LRU-bounded mapping of hashable key → result."""

    __slots__ = ("max_entries", "_entries", "_lock", "_hits", "_misses", "_evictions")

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: tuple) -> Any | None:
        """Look up *key*, counting a hit or miss and touching LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: tuple, value: Any) -> None:
        """Insert *value*, evicting the least-recently-used beyond bounds."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_entries=self.max_entries,
            )

#: process-wide result cache: (table fingerprint, spec key) → result
_RESULT_CACHE = LRUCache(max_entries=_CACHE_MAX_ENTRIES)


def preprocess_cache_stats() -> CacheStats:
    """Lifetime counters of the shared preprocess result cache."""
    return _RESULT_CACHE.stats()


def clear_preprocess_cache() -> None:
    """Drop all cached preprocess results (counters are preserved)."""
    _RESULT_CACHE.clear()


@dataclass(frozen=True, slots=True)
class TierSpec:
    """Derive an activity-tier column from a high-cardinality key column."""

    column: str
    output_column: str
    top_share: float = 0.25
    bottom_share: float = 0.25
    frequent_label: str = "Freq"
    moderate_label: str = "Moderate"
    rare_label: str = "Rare"


@dataclass(frozen=True, slots=True)
class GroupingSpec:
    """Apply a semantic label mapping to a categorical column in place."""

    column: str
    mapping: dict[str, str] | None = None  # None → the paper's model families


@dataclass(slots=True)
class PreprocessResult:
    """Everything a case study needs from preprocessing."""

    database: TransactionDatabase
    table: ColumnTable
    dropped_items: list[Item]
    bin_ranges: dict[str, dict[str, tuple[float, float]]]
    tiers: dict[str, ActivityTiers]

    def summary(self) -> str:
        return (
            f"PreprocessResult(n_transactions={len(self.database)}, "
            f"n_items={self.database.n_items}, "
            f"dropped_skewed={len(self.dropped_items)})"
        )


def _tier_column(source: CategoricalColumn, fitted: ActivityTiers) -> CategoricalColumn:
    """Vectorised tier labelling: one ``tier_of`` call per *category*.

    The lookup happens once per category code and rows are remapped with
    a gather.  Tier categories are ordered by first appearance in row
    order, as a per-row lookup would intern them, because the encoder
    interns items in category order and the database fingerprint
    depends on it.  The first row of each of the few tiers is found by a
    comparison pass, not by sorting the rows.
    """
    cat_tiers = [fitted.tier_of(cat) for cat in source.categories]
    tier_labels = list(dict.fromkeys(cat_tiers))
    tier_index = {t: i for i, t in enumerate(tier_labels)}
    # a trailing -1 in each lookup table carries missing rows (code -1)
    cat_to_tier = np.asarray(
        [*map(tier_index.__getitem__, cat_tiers), -1], dtype=np.int32
    )
    mapped = cat_to_tier[source.codes]
    if not mapped.size:
        return CategoricalColumn(mapped, [])
    first_row = {}
    for tier in range(len(tier_labels)):
        hit = mapped == tier
        row = int(hit.argmax())
        if hit[row]:
            first_row[tier] = row
    order = sorted(first_row, key=first_row.__getitem__)
    final_code = np.full(len(tier_labels) + 1, -1, dtype=np.int32)
    final_code[order] = np.arange(len(order), dtype=np.int32)
    return CategoricalColumn(final_code[mapped], [tier_labels[i] for i in order])


class TracePreprocessor:
    """Configurable Sec. III-E pipeline: job table → transaction database."""

    def __init__(
        self,
        features: list[FeatureSpec],
        tier_specs: list[TierSpec] | None = None,
        grouping_specs: list[GroupingSpec] | None = None,
        skew_max_share: float = 0.8,
    ):
        if not features:
            raise ValueError("at least one FeatureSpec is required")
        self.features = features
        self.tier_specs = tier_specs or []
        self.grouping_specs = grouping_specs or []
        self.skew_max_share = skew_max_share

    # -- caching ------------------------------------------------------------------
    def spec_key(self) -> tuple:
        """Deterministic, hashable digest of the full pipeline configuration."""
        return (
            tuple(
                (
                    s.column,
                    s.item_feature,
                    s.kind,
                    (
                        s.binning.scheme,
                        s.binning.n_bins,
                        s.binning.zero_label,
                        s.binning.std_label,
                        s.binning.std_threshold,
                    ),
                    s.true_label,
                )
                for s in self.features
            ),
            tuple(
                (
                    t.column,
                    t.output_column,
                    t.top_share,
                    t.bottom_share,
                    t.frequent_label,
                    t.moderate_label,
                    t.rare_label,
                )
                for t in self.tier_specs
            ),
            tuple(
                (
                    g.column,
                    tuple(sorted(g.mapping.items())) if g.mapping is not None else None,
                )
                for g in self.grouping_specs
            ),
            self.skew_max_share,
        )

    # -- execution ----------------------------------------------------------------
    def run(self, table: ColumnTable, *, use_cache: bool = True) -> PreprocessResult:
        """Execute all stages on *table* (cached by content by default)."""
        result, _ = self.run_with_status(table, use_cache=use_cache)
        return result

    def run_with_status(
        self, table: ColumnTable, *, use_cache: bool = True
    ) -> tuple[PreprocessResult, str]:
        """Like :meth:`run`, also reporting ``"hit"``/``"miss"``/``"off"``.

        Cached results are shared objects — treat the returned table and
        database as immutable, as everywhere else in the pipeline.
        """
        if not use_cache:
            return self._run_stages(table), "off"
        key = (table.fingerprint(), self.spec_key())
        cached = _RESULT_CACHE.get(key)
        if cached is not None:
            return cached, "hit"
        result = self._run_stages(table)
        _RESULT_CACHE.put(key, result)
        return result, "miss"

    def _run_stages(self, table: ColumnTable) -> PreprocessResult:
        working = table.copy()

        # 1a. semantic grouping
        with kernel_timer("ingest-tiers"):
            for gspec in self.grouping_specs:
                column = working[gspec.column]
                if not isinstance(column, CategoricalColumn):
                    raise TypeError(
                        f"grouping column {gspec.column!r} is not categorical"
                    )
                working.add_column(
                    gspec.column, apply_semantic_grouping(column, gspec.mapping)
                )

            # 1b. activity tiers
            tiers: dict[str, ActivityTiers] = {}
            for tspec in self.tier_specs:
                if tspec.output_column in working:
                    raise ValueError(
                        f"tier output column {tspec.output_column!r} already exists "
                        f"in the table; pick a distinct TierSpec.output_column"
                    )
                fitted = compute_activity_tiers(
                    working,
                    tspec.column,
                    top_share=tspec.top_share,
                    bottom_share=tspec.bottom_share,
                    frequent_label=tspec.frequent_label,
                    moderate_label=tspec.moderate_label,
                    rare_label=tspec.rare_label,
                )
                tiers[tspec.column] = fitted
                source = working[tspec.column]
                if not isinstance(source, CategoricalColumn):
                    raise TypeError(f"tier column {tspec.column!r} is not categorical")
                working.add_column(tspec.output_column, _tier_column(source, fitted))

        # 2+3. binning and one-hot encoding (ingest-bin / ingest-encode
        # kernels are recorded inside the encoder)
        encoder = TransactionEncoder(self.features)
        db = encoder.fit_transform(working)

        # 4. skew filter
        with kernel_timer("ingest-skew"):
            db, dropped = drop_skewed_items(db, self.skew_max_share)

        return PreprocessResult(
            database=db,
            table=working,
            dropped_items=dropped,
            bin_ranges=encoder.bin_ranges(),
            tiers=tiers,
        )
