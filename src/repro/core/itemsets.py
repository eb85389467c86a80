"""Container for the result of a frequent-itemset mining pass.

:class:`FrequentItemsets` couples the raw ``frozenset[int] → count``
mapping produced by the mining algorithms with the vocabulary and database
size needed to interpret it.  Rule generation reads it through one
:class:`ItemsetView` — the same table as arrays, built on first use and
kept for every later keyword of the pass.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping
from itertools import chain

import numpy as np

from .items import Item, ItemVocabulary, render_itemset
from .ruletable import side_strings, sort_within_rows

__all__ = ["FrequentItemsets", "ItemsetView"]


def _padded_rows(
    sets: Collection[frozenset[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(lengths, indptr, ids, padded)`` of *sets*: a sorted-id CSR and
    its ``(rows, width)`` uint64 matrix of ``id + 1``, zero padded."""
    n = len(sets)
    lengths = np.fromiter(map(len, sets), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    total = int(indptr[-1])
    ids = sort_within_rows(
        indptr, np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=total)
    )
    width = int(lengths.max()) if n else 0
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    padded = np.zeros((n, width), dtype=np.uint64)
    padded[rows, np.arange(total, dtype=np.int64) - indptr[rows]] = (
        ids.astype(np.uint64) + np.uint64(1)
    )
    return lengths, indptr, ids, padded


class ItemsetView:
    """One frequent-itemset table as columns; row ``r`` is its ``r``-th itemset.

    * ``indptr`` / ``ids`` — the itemsets as CSR rows, ids ascending;
    * ``lengths`` and ``counts`` — one entry per row;
    * ``padded`` — ``(rows, max_len)`` uint64 matrix of ``id + 1``, zero
      padded, the form subsets are cut from;
    * packed keys, sorted for ``np.searchsorted``, so a subset's row is a
      binary search (:meth:`find`);
    * ``strings`` — each row's ``str(sorted(items))``, the object path's
      tie-break text — and ``rank``, each row's position when those
      strings are sorted.  Comparing ranks is comparing the strings.
    """

    __slots__ = (
        "indptr", "ids", "lengths", "counts", "padded", "bits",
        "_sorted_keys", "_key_rows", "strings", "rank",
    )

    def __init__(
        self, counts: Mapping[frozenset[int], int], vocabulary: ItemVocabulary
    ) -> None:
        n = len(counts)
        self.lengths, self.indptr, self.ids, self.padded = _padded_rows(counts)
        self.counts = np.fromiter(counts.values(), dtype=np.int64, count=n)
        self.bits = (int(self.ids.max()) + 1 if self.ids.size else 0).bit_length()
        keys = self._keys(self.padded)
        self._key_rows = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._key_rows]

        self.strings = side_strings(self.indptr, self.ids, vocabulary)
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[np.argsort(self.strings, kind="stable")] = np.arange(n)

    def __len__(self) -> int:
        return len(self.lengths)

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

    # -- lookups -----------------------------------------------------------------
    def count_of(self, itemset: Iterable[int]) -> int:
        """Support count σ(X); KeyError if X is not frequent."""
        key = frozenset(itemset)
        try:
            return self.counts[key]
        except KeyError:
            raise KeyError(
                f"itemset {self.render(key)} is not frequent at min_support="
                f"{self.min_support}"
            ) from None

    def support_of(self, itemset: Iterable[int]) -> float:
        """Relative support supp(X) ∈ [0, 1]."""
        if self.n_transactions == 0:
            return 0.0
        return self.count_of(itemset) / self.n_transactions

    def get_support(self, itemset: Iterable[int]) -> float | None:
        """Relative support, or None if the itemset is not frequent."""
        key = frozenset(itemset)
        count = self.counts.get(key)
        if count is None or self.n_transactions == 0:
            return None
        return count / self.n_transactions

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

    def by_length(self) -> dict[int, int]:
        """Histogram: itemset length → number of frequent itemsets."""
        return dict(sorted(Counter(len(s) for s in self.counts).items()))

    def items_sets(self) -> Iterator[tuple[frozenset[Item], float]]:
        """Iterate (decoded itemset, relative support) pairs."""
        n = max(self.n_transactions, 1)
        for ids, count in self.counts.items():
            yield self.vocabulary.items_of(ids), count / n

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
