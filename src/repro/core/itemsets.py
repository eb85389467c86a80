"""Container for the result of a frequent-itemset mining pass.

:class:`FrequentItemsets` couples the raw ``frozenset[int] → count``
mapping produced by the mining algorithms with the vocabulary and database
size needed to interpret it.  Rule generation and Conditions 1–4 read it
through one :class:`ItemsetView` — the same table as arrays plus its
lattice (each itemset's proper subsets, by split pattern), built on
first use and kept for every later keyword of the pass.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping
from itertools import chain

import numpy as np

from .items import ItemVocabulary, render_itemset
from .ruletable import csr_range_gather, side_strings, sort_within_rows

__all__ = ["FrequentItemsets", "ItemsetView"]


def _csr_rows(
    sets: Collection[frozenset[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, ids)`` of *sets*: a CSR with ids ascending per row."""
    n = len(sets)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sets), dtype=np.int64, count=n), out=indptr[1:])
    flat = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(indptr[-1]))
    return indptr, sort_within_rows(indptr, flat)


def _padded(indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The ``(rows, width)`` uint64 matrix of ``id + 1`` of CSR rows, zero padded."""
    lengths = np.diff(indptr)
    width = int(lengths.max()) if lengths.size else 0
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    padded = np.zeros((len(lengths), width), dtype=np.uint64)
    padded[rows, np.arange(ids.size, dtype=np.int64) - indptr[rows]] = (
        ids.astype(np.uint64) + np.uint64(1)
    )
    return padded


class ItemsetView:
    """One frequent-itemset table as columns; row ``r`` is its ``r``-th itemset.

    * ``indptr`` / ``ids`` — the itemsets as CSR rows, ids ascending;
    * ``lengths`` and ``counts`` — one entry per row (``counts`` and the
      ``vocabulary`` are ``None`` on a rows-only view, :meth:`of_rows`);
    * ``padded`` — ``(rows, max_len)`` uint64 matrix of ``id + 1``, zero
      padded, the form subsets are cut from;
    * packed keys, sorted for ``np.searchsorted``, so a subset's row is a
      binary search (:meth:`find`);
    * the split table (the itemset lattice): row ``Z`` of ``L ≥ 2`` ids
      owns the entries ``split_indptr[Z] + P - 1`` for the patterns
      ``P = 1 … 2**L - 2``, where bit ``k`` of ``P`` selects the ``k``-th
      id of ``Z``.  ``sub`` (int32) holds the row of the sub-itemset
      ``P`` selects, or ``-1`` if it is absent.  The complement of ``P``
      is the entry mirrored within the row's range, so a split
      ``A ⇒ Z∖A`` is two reads of ``sub``.  ``owner`` maps each entry
      back to its row.
    """

    __slots__ = (
        "indptr", "ids", "lengths", "counts", "padded", "bits",
        "_sorted_keys", "_key_rows", "split_indptr", "sub", "_owner",
        "vocabulary",
    )

    def __init__(
        self, counts: Mapping[frozenset[int], int], vocabulary: ItemVocabulary
    ) -> None:
        self.vocabulary = vocabulary
        self.counts = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        indptr, ids = _csr_rows(counts)
        self._set_rows(indptr, ids, _padded(indptr, ids))
        keys = self._keys(self.padded)
        self._key_rows = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._key_rows]
        self._build_splits()

    @classmethod
    def of_rows(
        cls, indptr: np.ndarray, ids: np.ndarray
    ) -> tuple["ItemsetView", np.ndarray]:
        """A rows-only view of the distinct rows of a CSR (ids ascending per
        row), and the view row of every input row.

        It has no counts and no vocabulary, so no tie-break strings.
        """
        view = cls.__new__(cls)
        view.vocabulary = view.counts = None
        view._set_rows(indptr, ids, _padded(indptr, ids))
        keys, first, row_of = np.unique(
            view._keys(view.padded), return_index=True, return_inverse=True
        )
        distinct_indptr, flat = csr_range_gather(indptr, first)
        view._set_rows(distinct_indptr, ids[flat], view.padded[first])
        view._sorted_keys = keys
        view._key_rows = np.arange(len(first), dtype=np.int64)
        view._build_splits()
        return view, row_of.ravel()

    def _set_rows(self, indptr: np.ndarray, ids: np.ndarray, padded: np.ndarray) -> None:
        self.indptr, self.ids, self.padded = indptr, ids, padded
        self.lengths = np.diff(indptr)
        self.bits = (int(ids.max()) + 1 if ids.size else 0).bit_length()
        self._owner = None

    def _build_splits(self) -> None:
        """The split table: one :meth:`find` per pattern of each length class."""
        n_entries = np.where(self.lengths >= 2, (1 << self.lengths) - 2, 0)
        self.split_indptr = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(n_entries, out=self.split_indptr[1:])
        self.sub = np.empty(int(self.split_indptr[-1]), dtype=np.int32)
        for length in sorted(set(self.lengths[self.lengths >= 2].tolist())):
            rows = np.flatnonzero(self.lengths == length)
            base = self.padded[rows, :length]
            before_first = self.split_indptr[rows] - 1
            for pattern in range(1, (1 << length) - 1):
                found, ok = self.find(
                    base[:, [k for k in range(length) if (pattern >> k) & 1]]
                )
                self.sub[before_first + pattern] = np.where(ok, found, -1)

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def owner(self) -> np.ndarray:
        """The row owning each split-table entry (built on first use)."""
        if self._owner is None:
            self._owner = np.repeat(
                np.arange(len(self), dtype=np.int32), np.diff(self.split_indptr)
            )
        return self._owner

    def tie_break(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each of *rows*' ``str(sorted(items))`` (the canonical
        order's tie-break text) and dense integer rank: comparing ranks is
        comparing the strings.  Only the distinct rows are rendered."""
        distinct, inverse = np.unique(rows, return_inverse=True)
        indptr, flat = csr_range_gather(self.indptr, distinct)
        strings = side_strings(indptr, self.ids[flat], self.vocabulary)
        _, ranks = np.unique(strings, return_inverse=True)
        return strings[inverse], ranks.ravel()[inverse]

    def _keys(self, sub: np.ndarray) -> np.ndarray:
        """One exact key per row of an ``(m, k)`` slice of ``id + 1`` columns.

        Rows pack into one uint64 (``bits`` per slot) when the widest
        itemset fits; otherwise each zero-padded row is one raw-bytes key.
        """
        width = self.padded.shape[1]
        if self.bits * width <= 64:
            acc = np.zeros(len(sub), dtype=np.uint64)
            for k in range(sub.shape[1]):
                acc |= sub[:, k] << np.uint64(self.bits * k)
            return acc
        full = np.zeros((len(sub), width), dtype=np.uint64)
        full[:, : sub.shape[1]] = sub
        return full.view(np.dtype((np.void, 8 * width))).ravel()

    def find(self, sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, found)`` of the itemsets given as ``id + 1`` columns."""
        if not len(self):
            return np.zeros(len(sub), dtype=np.int64), np.zeros(len(sub), dtype=bool)
        keys = self._keys(sub)
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), len(self) - 1)
        return self._key_rows[pos], self._sorted_keys[pos] == keys


class FrequentItemsets:
    """Frequent itemsets plus the context required to compute supports."""

    __slots__ = (
        "counts", "vocabulary", "n_transactions", "min_support", "max_len", "_view",
    )

    def __init__(
        self,
        counts: Mapping[frozenset[int], int],
        vocabulary: ItemVocabulary,
        n_transactions: int,
        min_support: float,
        max_len: int | None = None,
    ):
        if n_transactions < 0:
            raise ValueError("n_transactions must be >= 0")
        self.counts: dict[frozenset[int], int] = dict(counts)
        self.vocabulary = vocabulary
        self.n_transactions = n_transactions
        self.min_support = min_support
        self.max_len = max_len
        self._view: ItemsetView | None = None

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.counts)

    def __contains__(self, itemset: frozenset[int]) -> bool:
        return frozenset(itemset) in self.counts

    def __repr__(self) -> str:
        return (
            f"FrequentItemsets(n={len(self)}, n_transactions={self.n_transactions}, "
            f"min_support={self.min_support})"
        )

    # -- views --------------------------------------------------------------------
    def view(self) -> ItemsetView:
        """The table as columns, built on first call and reused after.

        Every rule-generation call of a mining pass (one per keyword)
        reads this one view.  It reflects ``counts`` as of that first
        call; the mining layers never modify ``counts`` afterwards.
        """
        if self._view is None:
            self._view = ItemsetView(self.counts, self.vocabulary)
        return self._view

    def render(self, itemset: Iterable[int]) -> str:
        """Human-readable form of an encoded itemset."""
        return render_itemset(self.vocabulary.items_of(itemset))

    def top(self, k: int, min_length: int = 1) -> list[tuple[frozenset[int], int]]:
        """The *k* highest-support itemsets with at least *min_length* items."""
        eligible = [
            (ids, count)
            for ids, count in self.counts.items()
            if len(ids) >= min_length
        ]
        eligible.sort(key=lambda pair: (-pair[1], sorted(pair[0])))
        return eligible[:k]
