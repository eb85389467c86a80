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
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .items import Item, ItemVocabulary, as_item

__all__ = ["TransactionDatabase"]

#: partition boundaries snap to this many transactions so that every
#: partition starts on a bitmap word boundary (see :meth:`split`)
_ALIGN = 64


class TransactionDatabase:
    """An immutable set of transactions over an interned item vocabulary."""

    __slots__ = (
        "vocabulary",
        "indptr",
        "indices",
        "_bitmaps_cache",
        "_fingerprint_cache",
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

    @classmethod
    def from_onehot(
        cls,
        matrix: np.ndarray,
        items: Sequence[Item | str],
        vocabulary: ItemVocabulary | None = None,
    ) -> "TransactionDatabase":
        """Build from a boolean one-hot matrix (n_transactions × n_items).

        This is the hand-off point from the preprocessing pipeline, which
        produces exactly this encoding (Sec. III-E: "the database gets
        transformed using one-hot encoding into the FP-Growth algorithm's
        supported format").
        """
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError("one-hot matrix must be 2-D")
        if matrix.shape[1] != len(items):
            raise ValueError(
                f"matrix has {matrix.shape[1]} columns but {len(items)} items given"
            )
        vocab = vocabulary if vocabulary is not None else ItemVocabulary()
        col_ids = np.asarray([vocab.intern(as_item(i)) for i in items], dtype=np.int32)
        if len(set(col_ids.tolist())) != col_ids.size:
            raise ValueError("duplicate items in one-hot column list")
        rows, cols = np.nonzero(matrix)
        ids = col_ids[cols]
        # sort by (row, id) so per-transaction ids are increasing
        order = np.lexsort((ids, rows))
        indices = ids[order]
        counts = np.bincount(rows, minlength=matrix.shape[0])
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return cls(vocab, indptr, indices)

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
        """Support count of every item id, shape (n_items,)."""
        return np.bincount(self.indices, minlength=self.n_items).astype(np.int64)

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
        vocabularies fingerprint equally even when built independently,
        which is what lets the engine's itemset cache address results by
        *content* rather than object identity.  Computed lazily and
        cached — the database is immutable, so the hash never changes.
        """
        if self._fingerprint_cache is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.ascontiguousarray(self.indptr).tobytes())
            digest.update(np.ascontiguousarray(self.indices).tobytes())
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
        return TransactionDatabase(self.vocabulary, new_indptr, new_indices)

    def sample(self, indices: Sequence[int]) -> "TransactionDatabase":
        """Select a subset of transactions by row index (for partitioning)."""
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

    def partition_bounds(self, n_parts: int) -> np.ndarray:
        """Contiguous partition boundaries for :meth:`split`.

        Evenly spaced, but snapped down to 64-transaction multiples when
        the database is large enough — aligned partitions start on a
        bitmap word boundary, so their bitmaps are word slices of the
        parent's (see :meth:`txn_range`).
        """
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        n = len(self)
        bounds = np.linspace(0, n, n_parts + 1).astype(np.int64)
        if n >= n_parts * _ALIGN:
            bounds[1:-1] = (bounds[1:-1] // _ALIGN) * _ALIGN
        return bounds

    def split(self, n_parts: int) -> list["TransactionDatabase"]:
        """Split into *n_parts* contiguous chunks."""
        bounds = self.partition_bounds(n_parts)
        return [
            self.txn_range(int(bounds[k]), int(bounds[k + 1]))
            for k in range(n_parts)
            if bounds[k + 1] > bounds[k]
        ]
