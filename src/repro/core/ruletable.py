"""Columnar (struct-of-arrays) rule storage — the canonical rule form.

A :class:`RuleTable` holds ``n`` association rules as parallel arrays
instead of ``n`` :class:`~repro.core.rules.AssociationRule` objects:

* antecedent / consequent item ids in CSR form (``ant_indptr`` /
  ``ant_ids`` and ``cons_indptr`` / ``cons_ids``, ids sorted ascending
  within each row), and
* one float64 column per quality metric
  (``support``, ``confidence``, ``lift``, ``leverage``, ``conviction``).

Every layer that used to pass ``list[AssociationRule]`` around — rule
generation, Sec. III-D pruning, RuleBook persistence, the serving index —
can instead operate on these columns with numpy, materialising
``AssociationRule`` views lazily (``table[i]`` / ``table.to_rules()``)
only at the presentation boundary.

:meth:`side_masks` packs each side into ``ceil(n_items/64)`` uint64
words (bit ``t & 63`` of word ``t >> 6`` set iff item ``t`` is present),
the same layout as ``core/bitmap.py`` uses for transactions, so
``X ⊆ Y`` is ``(x & y) == x`` over a handful of words; :meth:`dedup`
and :func:`side_strings` key rows by them.  A generated table also
keeps its split provenance — its itemset view and each row's entry in
that view's split table — which Conditions 1–4 join on.  ``select``
(and so ``sort_canonical`` and ``dedup``) carries it; ``concat`` of two
or more tables, ``remap_ids`` and pickling drop it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .items import Item, ItemVocabulary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (rules imports us)
    from .itemsets import ItemsetView
    from .rules import AssociationRule

__all__ = ["RuleTable", "METRIC_COLUMNS", "row_ids", "side_strings", "sort_within_rows"]

#: metric column names, in canonical (persistence) order
METRIC_COLUMNS = ("support", "confidence", "lift", "leverage", "conviction")

_IDS_DTYPE = np.int32
_INDPTR_DTYPE = np.int64


def _as_indptr(values: object) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=_INDPTR_DTYPE)
    if arr.ndim != 1 or arr.size == 0 or arr[0] != 0:
        raise ValueError("indptr must be 1-D, non-empty and start at 0")
    return arr


def _as_ids(values: object) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=_IDS_DTYPE)


def _as_metric(values: object, n: int, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"metric column {name!r} must have shape ({n},)")
    return arr


def csr_range_gather(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised gather of CSR rows.

    Returns ``(new_indptr, flat_index)`` where ``flat_index`` selects, from
    the source value array, the concatenation of the requested rows.
    """
    lens = np.diff(indptr)[rows]
    new_indptr = np.concatenate(([0], np.cumsum(lens, dtype=_INDPTR_DTYPE)))
    total = int(new_indptr[-1])
    if total == 0:
        return new_indptr, np.empty(0, dtype=np.int64)
    flat = (
        np.repeat(indptr[rows], lens)
        + np.arange(total, dtype=np.int64)
        - np.repeat(new_indptr[:-1], lens)
    )
    return new_indptr, flat


def pack_side_masks(indptr: np.ndarray, ids: np.ndarray, n_items: int) -> np.ndarray:
    """Pack CSR id rows into ``(n_rows, ceil(n_items/64))`` uint64 masks."""
    n_rows = len(indptr) - 1
    n_words = max(1, (int(n_items) + 63) >> 6)
    masks = np.zeros((n_rows, n_words), dtype=np.uint64)
    if ids.size:
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
        ids64 = ids.astype(np.uint64)
        np.bitwise_or.at(masks, (rows, ids64 >> np.uint64(6)),
                         np.uint64(1) << (ids64 & np.uint64(63)))
    return masks


def row_ids(masks: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of packed *masks*: equal rows ⇔ equal ids.

    Word by word: the ids so far and the next word's ids combine into one
    integer, renumbered densely so it never outgrows int64.
    """
    _, ids = np.unique(masks[:, 0], return_inverse=True)
    for word in masks.T[1:]:
        _, word_ids = np.unique(word, return_inverse=True)
        _, ids = np.unique(
            ids * (int(word_ids.max()) + 1) + word_ids, return_inverse=True
        )
    return ids.ravel()


def side_strings(
    indptr: np.ndarray, ids: np.ndarray, vocabulary: ItemVocabulary
) -> np.ndarray:
    """Per-row ``str(sorted(vocabulary.items_of(row)))`` of CSR id rows.

    Returns an object array of the exact strings the object path sorts
    by.  Each item's ``repr`` is computed once and each distinct row
    joins them in item order (a per-item rank), so no row sorts
    :class:`Item` objects; equal rows share one string.
    """
    n_rows = len(indptr) - 1
    if n_rows == 0:
        return np.empty(0, dtype=object)
    _, first, inverse = np.unique(
        row_ids(pack_side_masks(indptr, ids, len(vocabulary))),
        return_index=True, return_inverse=True,
    )
    indptr, flat = csr_range_gather(indptr, first)
    ids = ids[flat]
    items = list(vocabulary)
    item_rank = np.empty(len(items), dtype=np.int64)
    item_rank[sorted(range(len(items)), key=items.__getitem__)] = np.arange(len(items))
    reprs = list(map(repr, items))
    rows = np.repeat(np.arange(len(first), dtype=np.int64), np.diff(indptr))
    texts = list(map(reprs.__getitem__, ids[np.lexsort((item_rank[ids], rows))].tolist()))
    bounds = indptr.tolist()
    distinct = np.empty(len(first), dtype=object)
    distinct[:] = ["[" + ", ".join(texts[a:b]) + "]" for a, b in zip(bounds, bounds[1:])]
    return distinct[inverse.ravel()]


def rows_containing(indptr: np.ndarray, ids: np.ndarray, item_id: int) -> np.ndarray:
    """Boolean array: does CSR row ``i`` contain *item_id*?"""
    n_rows = len(indptr) - 1
    if n_rows == 0 or ids.size == 0:
        return np.zeros(n_rows, dtype=bool)
    hits = ids == item_id
    # segment-OR via cumulative sum of hits at row boundaries
    csum = np.concatenate(([0], np.cumsum(hits, dtype=np.int64)))
    return (csum[indptr[1:]] - csum[indptr[:-1]]) > 0


class RuleTable:
    """Struct-of-arrays container for scored association rules.

    The table is immutable by convention: transformation methods
    (:meth:`select`, :meth:`concat`, :meth:`sort_canonical`,
    :meth:`remap_ids`) return new tables sharing the vocabulary.
    """

    __slots__ = (
        "vocabulary",
        "ant_indptr", "ant_ids", "cons_indptr", "cons_ids",
        "support", "confidence", "lift", "leverage", "conviction",
        "_sort_strings_cache", "_splits",
    )

    def __init__(
        self,
        vocabulary: ItemVocabulary,
        ant_indptr: object,
        ant_ids: object,
        cons_indptr: object,
        cons_ids: object,
        support: object,
        confidence: object,
        lift: object,
        leverage: object,
        conviction: object,
    ) -> None:
        self.vocabulary = vocabulary
        self.ant_indptr = _as_indptr(ant_indptr)
        self.ant_ids = _as_ids(ant_ids)
        self.cons_indptr = _as_indptr(cons_indptr)
        self.cons_ids = _as_ids(cons_ids)
        n = len(self.ant_indptr) - 1
        if len(self.cons_indptr) - 1 != n:
            raise ValueError("antecedent and consequent indptr disagree on row count")
        if self.ant_indptr[-1] != len(self.ant_ids):
            raise ValueError("ant_indptr does not cover ant_ids")
        if self.cons_indptr[-1] != len(self.cons_ids):
            raise ValueError("cons_indptr does not cover cons_ids")
        self.support = _as_metric(support, n, "support")
        self.confidence = _as_metric(confidence, n, "confidence")
        self.lift = _as_metric(lift, n, "lift")
        self.leverage = _as_metric(leverage, n, "leverage")
        self.conviction = _as_metric(conviction, n, "conviction")
        self._sort_strings_cache: tuple[np.ndarray, np.ndarray] | None = None
        # split provenance of a generated table: the itemset view it was
        # read from and each row's entry in that view's split table
        self._splits: tuple[ItemsetView, np.ndarray] | None = None

    # -- pickling (slots class) ------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        # the split provenance stays behind: it references the whole view
        return {name: getattr(self, name) for name in self.__slots__ if name != "_splits"}

    def __setstate__(self, state: dict[str, object]) -> None:
        self._splits = None
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def empty(cls, vocabulary: ItemVocabulary | None = None) -> "RuleTable":
        vocab = vocabulary if vocabulary is not None else ItemVocabulary()
        zero = np.zeros(0, dtype=np.float64)
        return cls(
            vocab,
            np.zeros(1, dtype=_INDPTR_DTYPE), np.zeros(0, dtype=_IDS_DTYPE),
            np.zeros(1, dtype=_INDPTR_DTYPE), np.zeros(0, dtype=_IDS_DTYPE),
            zero, zero.copy(), zero.copy(), zero.copy(), zero.copy(),
        )

    @classmethod
    def from_rules(
        cls,
        rules: Sequence["AssociationRule"],
        vocabulary: ItemVocabulary | None = None,
    ) -> "RuleTable":
        """Build a table from materialised rule objects.

        With no *vocabulary* the id space is reconstructed from the rules'
        own ids; gaps (ids the rules never use) get placeholder items so
        every rule id stays valid in the rebuilt vocabulary.
        """
        rules = list(rules)
        if vocabulary is None:
            id_to_item: dict[int, Item] = {}
            for rule in rules:
                for item, item_id in zip(
                    sorted(rule.antecedent) + sorted(rule.consequent),
                    sorted(rule.antecedent_ids) + sorted(rule.consequent_ids),
                ):
                    id_to_item[item_id] = item
            max_id = max(id_to_item) if id_to_item else -1
            vocabulary = ItemVocabulary(
                id_to_item.get(i, Item("__unused__", str(i)))
                for i in range(max_id + 1)
            )
        ant_indptr = [0]
        cons_indptr = [0]
        ant_ids: list[int] = []
        cons_ids: list[int] = []
        cols: dict[str, list[float]] = {name: [] for name in METRIC_COLUMNS}
        for rule in rules:
            ant_ids.extend(sorted(rule.antecedent_ids))
            cons_ids.extend(sorted(rule.consequent_ids))
            ant_indptr.append(len(ant_ids))
            cons_indptr.append(len(cons_ids))
            for name in METRIC_COLUMNS:
                cols[name].append(getattr(rule, name))
        return cls(
            vocabulary, ant_indptr, ant_ids, cons_indptr, cons_ids,
            cols["support"], cols["confidence"], cols["lift"],
            cols["leverage"], cols["conviction"],
        )

    @classmethod
    def concat(cls, tables: Sequence["RuleTable"]) -> "RuleTable":
        """Concatenate tables row-wise (shared vocabulary assumed)."""
        tables = [t for t in tables if t is not None]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        vocab = tables[0].vocabulary
        ant_off = 0
        cons_off = 0
        ant_parts = []
        cons_parts = []
        for i, table in enumerate(tables):
            if i:
                ant_parts.append(table.ant_indptr[1:] + ant_off)
                cons_parts.append(table.cons_indptr[1:] + cons_off)
            else:
                ant_parts.append(table.ant_indptr)
                cons_parts.append(table.cons_indptr)
            ant_off += int(table.ant_indptr[-1])
            cons_off += int(table.cons_indptr[-1])
        out = cls(
            vocab,
            np.concatenate(ant_parts),
            np.concatenate([t.ant_ids for t in tables]),
            np.concatenate(cons_parts),
            np.concatenate([t.cons_ids for t in tables]),
            np.concatenate([t.support for t in tables]),
            np.concatenate([t.confidence for t in tables]),
            np.concatenate([t.lift for t in tables]),
            np.concatenate([t.leverage for t in tables]),
            np.concatenate([t.conviction for t in tables]),
        )
        if all(t._sort_strings_cache is not None for t in tables):
            out._sort_strings_cache = (
                np.concatenate([t._sort_strings_cache[0] for t in tables]),
                np.concatenate([t._sort_strings_cache[1] for t in tables]),
            )
        return out

    # -- basic container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.ant_indptr) - 1

    def __iter__(self) -> Iterator["AssociationRule"]:
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:
        return f"RuleTable(n_rules={len(self)}, n_items={len(self.vocabulary)})"

    def ant_row(self, i: int) -> np.ndarray:
        return self.ant_ids[self.ant_indptr[i]:self.ant_indptr[i + 1]]

    def cons_row(self, i: int) -> np.ndarray:
        return self.cons_ids[self.cons_indptr[i]:self.cons_indptr[i + 1]]

    def __getitem__(self, i: int) -> "AssociationRule":
        from .rules import AssociationRule

        ant = frozenset(int(x) for x in self.ant_row(i))
        cons = frozenset(int(x) for x in self.cons_row(i))
        return AssociationRule(
            antecedent=self.vocabulary.items_of(ant),
            consequent=self.vocabulary.items_of(cons),
            antecedent_ids=ant,
            consequent_ids=cons,
            support=float(self.support[i]),
            confidence=float(self.confidence[i]),
            lift=float(self.lift[i]),
            leverage=float(self.leverage[i]),
            conviction=float(self.conviction[i]),
        )

    def to_rules(self) -> list["AssociationRule"]:
        """Materialise every row as an :class:`AssociationRule` (in order)."""
        return [self[i] for i in range(len(self))]

    # -- derived columns -------------------------------------------------------

    @property
    def n_items(self) -> int:
        """Width of the id space covered by the table's masks."""
        width = len(self.vocabulary)
        if self.ant_ids.size:
            width = max(width, int(self.ant_ids.max()) + 1)
        if self.cons_ids.size:
            width = max(width, int(self.cons_ids.max()) + 1)
        return width

    def ant_sizes(self) -> np.ndarray:
        return np.diff(self.ant_indptr)

    def cons_sizes(self) -> np.ndarray:
        return np.diff(self.cons_indptr)

    def side_masks(self, side: str) -> np.ndarray:
        """Packed uint64 id-masks for one side ('antecedent'/'consequent')."""
        if side == "antecedent":
            return pack_side_masks(self.ant_indptr, self.ant_ids, self.n_items)
        if side == "consequent":
            return pack_side_masks(self.cons_indptr, self.cons_ids, self.n_items)
        raise ValueError(f"unknown side {side!r}")

    def contains_id(self, item_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(in_antecedent, in_consequent) boolean columns for *item_id*."""
        return (
            rows_containing(self.ant_indptr, self.ant_ids, item_id),
            rows_containing(self.cons_indptr, self.cons_ids, item_id),
        )

    # -- transformations -------------------------------------------------------

    def select(self, rows: object) -> "RuleTable":
        """New table with the given rows (keeps the given order)."""
        rows = np.asarray(rows, dtype=np.int64)
        ant_indptr, ant_flat = csr_range_gather(self.ant_indptr, rows)
        cons_indptr, cons_flat = csr_range_gather(self.cons_indptr, rows)
        out = RuleTable(
            self.vocabulary,
            ant_indptr, self.ant_ids[ant_flat],
            cons_indptr, self.cons_ids[cons_flat],
            self.support[rows], self.confidence[rows], self.lift[rows],
            self.leverage[rows], self.conviction[rows],
        )
        if self._sort_strings_cache is not None:
            ant_strs, cons_strs = self._sort_strings_cache
            out._sort_strings_cache = (ant_strs[rows], cons_strs[rows])
        if self._splits is not None:
            view, entry = self._splits
            out._splits = (view, entry[rows])
        return out

    def remap_ids(
        self, mapping: np.ndarray, vocabulary: ItemVocabulary
    ) -> "RuleTable":
        """New table with ids translated through ``mapping[old] = new``.

        The mapping must preserve item identity (``vocabulary.item_of(new)
        == old vocabulary.item_of(old)``), so cached sort strings — which
        depend only on the items — stay valid.  Ids are re-sorted within
        each row after translation.
        """
        ant_ids = mapping[self.ant_ids].astype(_IDS_DTYPE)
        cons_ids = mapping[self.cons_ids].astype(_IDS_DTYPE)
        ant_ids = sort_within_rows(self.ant_indptr, ant_ids)
        cons_ids = sort_within_rows(self.cons_indptr, cons_ids)
        out = RuleTable(
            vocabulary,
            self.ant_indptr, ant_ids, self.cons_indptr, cons_ids,
            self.support, self.confidence, self.lift,
            self.leverage, self.conviction,
        )
        out._sort_strings_cache = self._sort_strings_cache
        return out

    # -- canonical ordering ----------------------------------------------------

    def sort_strings(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``str(sorted(items))`` for each side (object arrays).

        These are the exact tie-break strings the object path uses in its
        deterministic sort.  Rule generation sets them from its itemset
        view; :meth:`select`, :meth:`concat` and :meth:`remap_ids` carry
        them along, so persistence and merging never rebuild them.
        """
        if self._sort_strings_cache is None:
            self._sort_strings_cache = (
                side_strings(self.ant_indptr, self.ant_ids, self.vocabulary),
                side_strings(self.cons_indptr, self.cons_ids, self.vocabulary),
            )
        return self._sort_strings_cache

    def canonical_order(self) -> np.ndarray:
        """Permutation sorting rows by the canonical deterministic key.

        The key is ``(-lift, -confidence, -support, str(sorted(antecedent
        items)), str(sorted(consequent items)))`` — byte-for-byte the sort
        the object path applies.  The strings enter as integer ranks.
        """
        n = len(self)
        if n <= 1:
            return np.arange(n, dtype=np.int64)
        ant_strs, cons_strs = self.sort_strings()
        _, rank = np.unique(np.concatenate([ant_strs, cons_strs]), return_inverse=True)
        rank = rank.ravel()
        return np.lexsort(
            (rank[n:], rank[:n], -self.support, -self.confidence, -self.lift)
        )

    def in_canonical_order(self) -> bool:
        """Whether :meth:`canonical_order` is the identity, decided cheaply.

        The metric columns settle every adjacent pair that differs in
        ``(-lift, -confidence, -support)``; side strings are rendered only
        for the rows of pairs tying on all three.  A NaN metric answers
        ``False``, leaving its placement to the sort.
        """
        n = len(self)
        if n <= 1:
            return True
        tie = np.ones(n - 1, dtype=bool)
        for column in (self.lift, self.confidence, self.support):
            if np.isnan(column).any():
                return False
            key = -column
            if (tie & (key[:-1] > key[1:])).any():
                return False
            tie &= key[:-1] == key[1:]
        pairs = np.flatnonzero(tie)
        if pairs.size == 0:
            return True
        in_pair = np.zeros(n, dtype=bool)
        in_pair[pairs] = in_pair[pairs + 1] = True
        rows = np.flatnonzero(in_pair)
        sides = []
        for indptr, ids in (
            (self.ant_indptr, self.ant_ids), (self.cons_indptr, self.cons_ids)
        ):
            sub_indptr, flat = csr_range_gather(indptr, rows)
            sides.append(side_strings(sub_indptr, ids[flat], self.vocabulary))
        keys = list(zip(*(side.tolist() for side in sides)))
        at = np.searchsorted(rows, pairs).tolist()
        return all(keys[i] <= keys[i + 1] for i in at)

    def sort_canonical(self) -> "RuleTable":
        """New table in canonical deterministic order; this table when it
        already is (a saved book read back), found without sorting."""
        if self.in_canonical_order():
            return self
        return self.select(self.canonical_order())

    def dedup(self) -> "RuleTable":
        """New table keeping the first occurrence of each (ant, cons) pair."""
        if len(self) <= 1:
            return self
        keys = row_ids(
            np.hstack([self.side_masks("antecedent"), self.side_masks("consequent")])
        )
        _, first = np.unique(keys, return_index=True)
        if len(first) == len(self):
            return self
        return self.select(np.sort(first))


def sort_within_rows(indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Sort ids ascending within each CSR row."""
    if ids.size == 0:
        return ids
    rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    order = np.lexsort((ids, rows))
    return ids[order]

