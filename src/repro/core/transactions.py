"""Transaction database: the mining algorithms' shared input format.

A :class:`TransactionDatabase` stores one transaction per job in CSR
layout — a flat ``indices`` array of item ids plus an ``indptr`` offset
array — exactly like a scipy CSR matrix but without the dependency.  The
layout gives cache-friendly sequential scans (Apriori counting,
FP-tree construction) and cheap per-item *vertical* views used by Eclat
and by rule-metric evaluation.  Vertical views are served as packed
``uint64`` bitsets (:mod:`repro.core.bitmap`), 64 transactions per word,
not as dense booleans — one bit per transaction instead of one byte.

Invariants:

* within each transaction, item ids are strictly increasing (sorted,
  deduplicated at construction);
* every id is a valid index into the attached :class:`ItemVocabulary`.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .items import Item, ItemVocabulary, as_item

__all__ = ["TransactionDatabase", "min_support_count"]

#: transactions per bitmap word: a range starting on a multiple of this
#: inherits its parent's bitmaps (see :meth:`TransactionDatabase.txn_range`)
_ALIGN = 64


def min_support_count(n: int, min_support: float) -> int:
    """The smallest count ``c >= 1`` with ``c / n >= min_support``.

    The miners' support floor, found with the very division the
    definition uses (support ``= count / n``, kept when ``>=`` the
    threshold), so no epsilon decides a boundary: a threshold just above
    ``c / n`` excludes *c*, and a product such as ``0.07 * 100`` that
    rounds above 7 still keeps 7.
    """
    if n < 1 or not 0.0 <= min_support <= 1.0:
        raise ValueError(f"need n >= 1 and min_support in [0, 1], got {n}, {min_support}")
    count = max(1, math.ceil(min_support * n))
    while count > 1 and (count - 1) / n >= min_support:
        count -= 1
    while count / n < min_support:
        count += 1
    return count


def _narrowest_unsigned(largest: int) -> np.dtype:
    """The smallest little-endian unsigned dtype that holds *largest*."""
    for dtype in ("<u1", "<u2", "<u4"):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype("<u8")


class TransactionDatabase:
    """An immutable set of transactions over an interned item vocabulary."""

    __slots__ = (
        "vocabulary",
        "indptr",
        "indices",
        "_bitmaps_cache",
        "_fingerprint_cache",
        "_item_counts_cache",
    )

    def __init__(
        self,
        vocabulary: ItemVocabulary,
        indptr: np.ndarray,
        indices: np.ndarray,
    ):
        self.vocabulary = vocabulary
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if self.indptr.size == 0 or self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must end at len(indices)")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= len(vocabulary)
        ):
            raise ValueError("item id out of vocabulary range")
        self._bitmaps_cache = None
        self._fingerprint_cache: str | None = None
        self._item_counts_cache: np.ndarray | None = None

    # -- construction --------------------------------------------------------
    @classmethod
    def from_itemsets(
        cls,
        transactions: Iterable[Iterable[Item | str | int]],
        vocabulary: ItemVocabulary | None = None,
    ) -> "TransactionDatabase":
        """Build from an iterable of item collections.

        Items are interned into *vocabulary* (a fresh one by default);
        duplicates within a transaction are collapsed.  When a
        vocabulary is supplied and the transactions are already
        id-encoded (integer elements), construction takes the
        vectorised :meth:`from_encoded` fast path instead of the
        per-transaction ``sorted(set(...))`` loop.
        """
        vocab = vocabulary if vocabulary is not None else ItemVocabulary()
        if vocabulary is not None:
            txns = [
                t if isinstance(t, (list, tuple)) else list(t)
                for t in transactions
            ]
            probe = next((next(iter(t)) for t in txns if t), None)
            if probe is None or isinstance(probe, (int, np.integer)):
                return cls.from_encoded(txns, vocab)
            transactions = txns
        indptr = [0]
        flat: list[int] = []
        for txn in transactions:
            ids = sorted({vocab.intern(as_item(i)) for i in txn})
            flat.extend(ids)
            indptr.append(len(flat))
        return cls(
            vocab,
            np.asarray(indptr, dtype=np.int64),
            np.asarray(flat, dtype=np.int32),
        )

    @classmethod
    def from_encoded(
        cls,
        transactions: Sequence[Sequence[int]],
        vocabulary: ItemVocabulary,
    ) -> "TransactionDatabase":
        """Fast path for already id-encoded transactions.

        Per-transaction sorting and deduplication happen in one
        vectorised pass (a single lexsort over all ids) instead of a
        Python-level ``sorted(set(...))`` per transaction — the
        difference between O(jobs) interpreter iterations and a handful
        of numpy calls when rebuilding databases from encoded streams
        (sliding windows, replayed traces).
        """
        n = len(transactions)
        if n == 0:
            return cls(
                vocabulary,
                np.zeros(1, dtype=np.int64),
                np.asarray([], dtype=np.int32),
            )
        lengths = np.fromiter(
            (len(t) for t in transactions), dtype=np.int64, count=n
        )
        total = int(lengths.sum())
        flat = np.empty(total, dtype=np.int64)
        offset = 0
        for txn, length in zip(transactions, lengths):
            if length:
                flat[offset : offset + length] = txn
                offset += length
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        order = np.lexsort((flat, rows))
        flat = flat[order]
        rows = rows[order]
        if flat.size:
            keep = np.concatenate(
                ([True], (flat[1:] != flat[:-1]) | (rows[1:] != rows[:-1]))
            )
            flat = flat[keep]
            rows = rows[keep]
        counts = np.bincount(rows, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return cls(vocabulary, indptr, flat.astype(np.int32))

    # -- basic protocol --------------------------------------------------------
    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def n_transactions(self) -> int:
        return len(self)

    @property
    def n_items(self) -> int:
        return len(self.vocabulary)

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n_transactions={len(self)}, "
            f"n_items={self.n_items}, nnz={self.indices.size})"
        )

    def transaction(self, i: int) -> np.ndarray:
        """Item ids of transaction *i* (a read-only view, sorted)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def iter_id_transactions(self) -> Iterator[np.ndarray]:
        """Iterate transactions as sorted id arrays (views, do not mutate)."""
        indptr, indices = self.indptr, self.indices
        for i in range(len(self)):
            yield indices[indptr[i] : indptr[i + 1]]

    def iter_item_transactions(self) -> Iterator[frozenset[Item]]:
        """Iterate transactions decoded back to Item frozensets."""
        for ids in self.iter_id_transactions():
            yield self.vocabulary.items_of(ids.tolist())

    # -- support machinery ------------------------------------------------------
    def item_support_counts(self) -> np.ndarray:
        """Support count of every item id, shape (n_items,), read-only.

        Counted once and kept, like :meth:`fingerprint`: the skew filter
        and the miner read the same histogram, and :meth:`restrict_items`
        hands its result these counts with the dropped ids zeroed.  A
        vocabulary grown since the count (new ids, count 0) recounts.
        """
        counts = self._item_counts_cache
        if counts is None or counts.size != self.n_items:
            counts = np.bincount(self.indices, minlength=self.n_items).astype(np.int64)
            counts.setflags(write=False)
            self._item_counts_cache = counts
        return counts

    def bitmaps(self):
        """Packed per-item occurrence bitsets (:class:`PackedBitmaps`).

        Built lazily; the instance caches a reference, and the build
        itself is shared through a content-addressed cache keyed by
        :meth:`fingerprint`, so equal-content databases (re-generated
        traces, repeated runs) reuse one build — and databases attached
        from a shared-memory segment (:mod:`repro.shm`) arrive with this
        cache pre-seeded by zero-copy views.  At trace scale this is
        8× smaller than the dense boolean matrix it replaced —
        ``n_items × n_transactions`` *bits*, not bytes.
        """
        if self._bitmaps_cache is None:
            from .bitmap import get_shared_bitmaps

            self._bitmaps_cache = get_shared_bitmaps(self)
        return self._bitmaps_cache

    def fingerprint(self) -> str:
        """Content hash of the database: transactions plus vocabulary.

        Two databases with identical transactions over identical
        vocabularies fingerprint equally even when built independently.
        A rulebook's header records it as the provenance of its rules,
        and the shared bitmap cache (:meth:`bitmaps`) keys builds by it.
        Computed lazily and kept — the database is immutable, so the
        hash never changes.
        """
        if self._fingerprint_cache is None:
            # the CSR content at its narrowest width: row lengths and item
            # ids each in the smallest unsigned dtype that holds them,
            # after a prefix naming the shape and both dtypes
            lengths = np.diff(self.indptr)
            length_dtype = _narrowest_unsigned(int(lengths.max(initial=0)))
            id_dtype = _narrowest_unsigned(max(self.n_items - 1, 0))
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.array([len(self), self.n_items], dtype="<u8").tobytes())
            digest.update(f"{length_dtype.str},{id_dtype.str}".encode())
            digest.update(lengths.astype(length_dtype).tobytes())
            digest.update(self.indices.astype(id_dtype).tobytes())
            for item in self.vocabulary:
                digest.update(str(item).encode())
                digest.update(b"\x00")
            self._fingerprint_cache = digest.hexdigest()
        return self._fingerprint_cache

    def support_count(self, itemset: Iterable[int | Item | str]) -> int:
        """σ(X): number of transactions containing every element of X."""
        ids = self._to_ids(itemset)
        if not ids:
            return len(self)
        return self.bitmaps().support_count(sorted(ids))

    def support(self, itemset: Iterable[int | Item | str]) -> float:
        """supp(X) = σ(X) / |D| (Eq. 1)."""
        if len(self) == 0:
            return 0.0
        return self.support_count(itemset) / len(self)

    def _to_ids(self, itemset: Iterable[int | Item | str]) -> list[int]:
        ids: list[int] = []
        for element in itemset:
            if isinstance(element, (int, np.integer)):
                item_id = int(element)
                if not 0 <= item_id < self.n_items:
                    raise KeyError(f"item id {item_id} out of range")
                ids.append(item_id)
            else:
                ids.append(self.vocabulary.id_of(element))
        return ids

    # -- projections -------------------------------------------------------------
    def restrict_items(self, keep_ids: Iterable[int]) -> "TransactionDatabase":
        """Drop all items outside *keep_ids* (ids preserved, vocab shared).

        Used to discard infrequent items before FP-tree construction and by
        the skew filter; empty transactions are retained so that |D| (and
        thus every support value) is unchanged.
        """
        keep = np.zeros(self.n_items, dtype=bool)
        keep[np.fromiter(keep_ids, dtype=np.int64)] = True
        mask = keep[self.indices]
        new_indices = self.indices[mask]
        # prefix-sum of the keep mask evaluated at transaction boundaries is
        # robust to empty transactions anywhere in the database
        cum = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
        new_indptr = cum[self.indptr]
        sub = TransactionDatabase(self.vocabulary, new_indptr, new_indices)
        counts = self._item_counts_cache
        if counts is not None and counts.size == keep.size:
            counts = np.where(keep, counts, 0)
            counts.setflags(write=False)
            sub._item_counts_cache = counts
        return sub

    def sample(self, indices: Sequence[int]) -> "TransactionDatabase":
        """Select a subset of transactions by row index."""
        idx = np.asarray(indices, dtype=np.int64)
        lengths = np.diff(self.indptr)[idx]
        new_indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        parts = [self.transaction(int(i)) for i in idx]
        new_indices = (
            np.concatenate(parts) if parts else np.asarray([], dtype=np.int32)
        )
        return TransactionDatabase(self.vocabulary, new_indptr, new_indices)

    def txn_range(self, start: int, stop: int) -> "TransactionDatabase":
        """The contiguous transaction range ``[start, stop)`` as a database.

        Zero-copy: the returned database's ``indices``/``indptr`` are
        views of this one's arrays.  When this database's packed bitmaps
        are already built and *start* is 64-aligned, the range inherits
        a word-slice of them instead of rebuilding.
        """
        if not 0 <= start <= stop <= len(self):
            raise ValueError(f"invalid transaction range [{start}, {stop})")
        lo = self.indptr[start]
        sub = TransactionDatabase(
            self.vocabulary,
            self.indptr[start : stop + 1] - lo,
            self.indices[lo : self.indptr[stop]],
        )
        if self._bitmaps_cache is not None and start % _ALIGN == 0:
            sub._bitmaps_cache = self._bitmaps_cache.slice_range(start, stop)
        return sub
