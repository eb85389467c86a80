"""Delta-maintained packed-bitmap windows — the streaming kernel.

:class:`StreamingBitmapWindow` answers "what holds over the last N
jobs?" for a serving fleet that must track a live trace, where
rebuilding the window per event would touch every transaction (100k at
a 100k-transaction window) to incorporate a 1k-event delta.  It keeps
the window *in the bitmap domain* instead.  Incoming transactions are packed into **granules** of exactly
64 transactions — one ``uint64`` word per item, the same bit layout and
alignment as :class:`~repro.core.bitmap.PackedBitmaps` (bit ``t & 63``
of word ``t >> 6``) — and
the window slides by appending sealed granules at the tail and evicting
whole granules at the head.  Every maintained statistic is updated by
popcount *deltas on only the changed words*:

* per-item supports: ``+popcount(new granule column)`` on seal,
  ``-popcount(evicted column)`` on evict;
* tracked-itemset supports (the serving rulebook's antecedents,
  consequents and unions): one vectorised AND-reduce + popcount over the
  single changed column per seal/evict.

Nothing is ever recounted from scratch on the steady path; a full pass
happens only when the tracked set itself changes (a remine rebased the
rulebook) and is timed under the ``stream-track`` kernel.
The tests assert bit-identical counts against the last *n* transactions
of the stream (``tests/oracles.py::window_of``) and against
:class:`PackedBitmaps` built from :meth:`snapshot`.

Window semantics: ``window_size`` is rounded up to a whole number of
granules; after the warm-up fill the window always holds the most
recent ``len(self)`` transactions with
``window_size - 63 <= len(self) <= window_size`` (eviction is
granule-granular, so the head moves in steps of 64).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from ..core.bitmap import _POPCOUNT16
from ..core.items import Item, ItemVocabulary, as_item
from ..core.transactions import TransactionDatabase
from ..obs import kernel_timer

__all__ = ["GRANULE", "StreamingBitmapWindow"]

#: transactions per granule — one uint64 word per item, matching the
#: packed-bitmap kernel's word width and partition alignment
GRANULE = 64

_ONE = np.uint64(1)


def _popcount_per_row(column: np.ndarray) -> np.ndarray:
    """Per-element popcount of a 1-D uint64 array (int64 result)."""
    flat = np.ascontiguousarray(column)
    halves = flat.view(np.uint16).reshape(flat.size, 4)
    return _POPCOUNT16[halves].sum(axis=1, dtype=np.int64)


class StreamingBitmapWindow:
    """A sliding transaction window maintained as packed word granules.

    Parameters
    ----------
    window_size:
        Target number of retained transactions; rounded up to a multiple
        of :data:`GRANULE` (eviction happens in whole granules).
    vocabulary:
        Shared :class:`ItemVocabulary`; grows as unseen items arrive.  It
        may also grow outside the window: an item interned elsewhere
        reads as support 0 until the window observes it.
    """

    __slots__ = (
        "window_size",
        "vocabulary",
        "_words",
        "_start",
        "_stop",
        "_granule_payload",
        "_partial_words",
        "_partial_payload",
        "_item_counts",
        "_tracked_indptr",
        "_tracked_ids",
        "_tracked_counts",
        "_n_seen",
    )

    def __init__(self, window_size: int, vocabulary: ItemVocabulary | None = None):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        granules = (window_size + GRANULE - 1) // GRANULE
        self.window_size = granules * GRANULE
        self.vocabulary = vocabulary if vocabulary is not None else ItemVocabulary()
        item_cap = max(16, len(self.vocabulary))
        # sealed-granule word matrix: rows = items, columns = granules;
        # live columns are [_start, _stop), compacted/grown on demand
        col_cap = granules + 1 + max(8, granules // 2)
        self._words = np.zeros((item_cap, col_cap), dtype=np.uint64)
        self._start = 0
        self._stop = 0
        #: per sealed granule: (per-transaction lengths, flat sorted ids)
        self._granule_payload: deque[tuple[np.ndarray, np.ndarray]] = deque()
        # the in-progress granule (< 64 transactions)
        self._partial_words = np.zeros(item_cap, dtype=np.uint64)
        self._partial_payload: list[np.ndarray] = []
        # maintained statistics (sealed + partial for items; sealed only
        # for tracked itemsets — the partial column is folded in on read)
        self._item_counts = np.zeros(item_cap, dtype=np.int64)
        self._tracked_indptr = np.zeros(1, dtype=np.int64)
        self._tracked_ids = np.zeros(0, dtype=np.int64)
        self._tracked_counts = np.zeros(0, dtype=np.int64)
        self._n_seen = 0

    # -- stream interface ------------------------------------------------------
    def __len__(self) -> int:
        return (self._stop - self._start) * GRANULE + len(self._partial_payload)

    @property
    def n_seen(self) -> int:
        """Total transactions observed over the stream's lifetime."""
        return self._n_seen

    @property
    def n_granules(self) -> int:
        """Sealed (whole-word) granules currently in the window."""
        return self._stop - self._start

    def window_bounds(self) -> tuple[int, int]:
        """Stream sequence range ``[first, last)`` of retained transactions."""
        return self._n_seen - len(self), self._n_seen

    def observe(self, transaction: Iterable[Item | str]) -> None:
        """Append one transaction, evicting whole granules beyond the window."""
        ids = sorted({self.vocabulary.intern(as_item(i)) for i in transaction})
        self._append_ids(np.asarray(ids, dtype=np.int32))

    def observe_many(self, transactions: Iterable[Iterable[Item | str]]) -> None:
        with kernel_timer("stream-append"):
            for txn in transactions:
                self.observe(txn)

    def extend_encoded(self, transactions: Iterable[Sequence[int]]) -> None:
        """Append already-encoded transactions (sorted unique window ids)."""
        with kernel_timer("stream-append"):
            for ids in transactions:
                self._append_ids(np.asarray(ids, dtype=np.int32))

    def _append_ids(self, ids: np.ndarray) -> None:
        self._ensure_items(len(self.vocabulary))
        if ids.size:
            if int(ids[0]) < 0 or int(ids[-1]) >= len(self.vocabulary):
                raise ValueError("transaction id outside the vocabulary")
            bit = _ONE << np.uint64(len(self._partial_payload))
            self._partial_words[ids] |= bit
            self._item_counts[ids] += 1
        self._partial_payload.append(ids)
        self._n_seen += 1
        if len(self._partial_payload) == GRANULE:
            self._seal()
        while len(self) > self.window_size and self._stop > self._start:
            self._evict()

    # -- granule lifecycle -----------------------------------------------------
    def _seal(self) -> None:
        """Freeze the partial granule into a sealed word column."""
        with kernel_timer("stream-seal"):
            if self._stop == self._words.shape[1]:
                self._compact_or_grow()
            self._words[:, self._stop] = self._partial_words
            if self._tracked_counts.size:
                self._tracked_counts += self._counts_on_column(self._partial_words)
            lens = np.fromiter(
                (a.size for a in self._partial_payload), np.int64, count=GRANULE
            )
            flat = (
                np.concatenate(self._partial_payload)
                if any(a.size for a in self._partial_payload)
                else np.zeros(0, dtype=np.int32)
            )
            self._granule_payload.append((lens, flat))
            self._stop += 1
            self._partial_words[:] = 0
            self._partial_payload = []

    def _evict(self) -> None:
        """Drop the oldest sealed granule, subtracting its popcounts."""
        with kernel_timer("stream-evict"):
            column = np.ascontiguousarray(self._words[:, self._start])
            self._item_counts -= _popcount_per_row(column)
            if self._tracked_counts.size:
                self._tracked_counts -= self._counts_on_column(column)
            self._words[:, self._start] = 0
            self._granule_payload.popleft()
            self._start += 1

    def _compact_or_grow(self) -> None:
        live = self._stop - self._start
        if self._start > 0:
            # slide live columns to the front (amortised by the slack
            # columns allocated beyond the window's granule count)
            self._words[:, :live] = self._words[:, self._start:self._stop]
            self._words[:, live:] = 0
        else:  # pragma: no cover - capacity always exceeds live granules
            grown = np.zeros(
                (self._words.shape[0], self._words.shape[1] * 2), dtype=np.uint64
            )
            grown[:, :live] = self._words[:, self._start:self._stop]
            self._words = grown
        self._start = 0
        self._stop = live

    def _ensure_items(self, n_items: int) -> None:
        cap = self._words.shape[0]
        if n_items <= cap:
            return
        new_cap = max(cap * 2, n_items)
        grown = np.zeros((new_cap, self._words.shape[1]), dtype=np.uint64)
        grown[:cap] = self._words
        self._words = grown
        for name in ("_partial_words", "_item_counts"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=old.dtype)
            fresh[:cap] = old
            setattr(self, name, fresh)

    # -- tracked itemsets ------------------------------------------------------
    def set_tracked(self, itemsets: Sequence[Sequence[int]]) -> None:
        """Replace the tracked itemsets and recount them over the window.

        This is the *rebase* operation: after a remine the new rulebook's
        itemsets become the tracked set.  It is the only full pass the
        window ever performs (``stream-track`` kernel); every subsequent
        seal/evict maintains the counts via single-column deltas.
        """
        indptr = [0]
        ids: list[int] = []
        for itemset in itemsets:
            members = sorted({int(i) for i in itemset})
            if not members:
                raise ValueError("tracked itemsets must be non-empty")
            if members[0] < 0 or members[-1] >= len(self.vocabulary):
                raise ValueError("tracked itemset id outside the vocabulary")
            ids.extend(members)
            indptr.append(len(ids))
        with kernel_timer("stream-track"):
            self._ensure_items(len(self.vocabulary))
            self._tracked_indptr = np.asarray(indptr, dtype=np.int64)
            self._tracked_ids = np.asarray(ids, dtype=np.int64)
            self._tracked_counts = self._recount_tracked()

    @property
    def n_tracked(self) -> int:
        return len(self._tracked_indptr) - 1

    def tracked_counts(self) -> np.ndarray:
        """Maintained support counts of the tracked itemsets (int64).

        Sealed granules are pre-aggregated; the partial granule's single
        word column is folded in here, so the result always covers the
        full ``len(self)`` transactions.
        """
        if not len(self._partial_payload) or not self._tracked_counts.size:
            return self._tracked_counts.copy()
        return self._tracked_counts + self._counts_on_column(self._partial_words)

    def _recount_tracked(self, chunk: int = 4096) -> np.ndarray:
        """Full recount of the tracked itemsets over all sealed columns."""
        n_tracked = len(self._tracked_indptr) - 1
        counts = np.zeros(n_tracked, dtype=np.int64)
        live = self._stop - self._start
        if n_tracked == 0 or live == 0:
            return counts
        words = self._words[:, self._start:self._stop]
        for lo in range(0, n_tracked, chunk):
            hi = min(lo + chunk, n_tracked)
            base = self._tracked_indptr[lo]
            ids = self._tracked_ids[base:self._tracked_indptr[hi]]
            starts = (self._tracked_indptr[lo:hi] - base).astype(np.int64)
            gathered = words[ids]  # (chunk ids, live granules)
            acc = np.bitwise_and.reduceat(gathered, starts, axis=0)
            halves = np.ascontiguousarray(acc).view(np.uint16)
            counts[lo:hi] = _POPCOUNT16[halves.reshape(hi - lo, -1)].sum(
                axis=1, dtype=np.int64
            )
        return counts

    def _counts_on_column(self, column: np.ndarray) -> np.ndarray:
        """Support deltas of every tracked itemset on one word column."""
        gathered = column[self._tracked_ids]
        acc = np.bitwise_and.reduceat(gathered, self._tracked_indptr[:-1])
        halves = np.ascontiguousarray(acc).view(np.uint16)
        return _POPCOUNT16[halves.reshape(acc.size, 4)].sum(axis=1, dtype=np.int64)

    # -- queries ---------------------------------------------------------------
    def item_support_counts(self) -> np.ndarray:
        """Maintained support count of every vocabulary item (int64)."""
        counts = np.zeros(len(self.vocabulary), dtype=np.int64)
        known = min(counts.size, self._item_counts.size)
        counts[:known] = self._item_counts[:known]
        return counts

    def item_support(self, item: Item | str) -> float:
        """Relative support of one item over the current window, O(1).

        Raises :class:`ValueError` on an empty window: support over zero
        transactions is undefined, and silently answering 0.0 would let a
        monitoring dashboard read "no failures" off a window that simply
        has no data yet.  An item the window has never seen reads 0.0.
        """
        n = len(self)
        if n == 0:
            raise ValueError(
                "item_support() is undefined on an empty window; "
                "observe() at least one transaction first"
            )
        item_id = self.vocabulary.get_id(as_item(item))
        if item_id is None or item_id >= self._item_counts.size:
            return 0.0
        return int(self._item_counts[item_id]) / n

    def snapshot(self) -> TransactionDatabase:
        """The current window as an immutable transaction database.

        Built by concatenating the sealed granules' retained CSR payloads
        plus the partial granule — no per-transaction Python loop.  The
        resulting database's bitmaps (via ``db.bitmaps()``) are the
        ground truth the maintained counts are tested against.
        """
        with kernel_timer("stream-snapshot"):
            lens_parts = [lens for lens, _flat in self._granule_payload]
            flat_parts = [flat for _lens, flat in self._granule_payload]
            if self._partial_payload:
                lens_parts.append(
                    np.fromiter(
                        (a.size for a in self._partial_payload),
                        np.int64,
                        count=len(self._partial_payload),
                    )
                )
                flat_parts.extend(self._partial_payload)
            n = len(self)
            indptr = np.zeros(n + 1, dtype=np.int64)
            if lens_parts:
                np.cumsum(np.concatenate(lens_parts), out=indptr[1:])
            indices = (
                np.concatenate(flat_parts)
                if flat_parts
                else np.zeros(0, dtype=np.int32)
            )
            return TransactionDatabase(self.vocabulary, indptr, indices)

    def __repr__(self) -> str:
        return (
            f"StreamingBitmapWindow(n={len(self)}/{self.window_size}, "
            f"granules={self.n_granules}, n_items={len(self.vocabulary)}, "
            f"tracked={self.n_tracked}, seen={self._n_seen})"
        )
