"""Packed-bitmap vertical kernel: uint64 bitsets + popcount counting.

The mining hot loop is "how many transactions contain every item of X?".
The previous answer was a dense boolean occurrence matrix
(``n_items × n_transactions`` bytes) combined with numpy ``&`` / ``sum``.
This module replaces it with the representation high-throughput pattern
miners use (Eclat/dEclat-style TID-bitsets): each item's occurrence
vector is packed 64 transactions per ``uint64`` word, so

* memory drops 8× (one *bit* per transaction instead of one byte);
* an itemset's support is ``popcount(AND of word rows)`` — the AND
  touches 64 transactions per word, and the popcount is a 16-bit
  lookup-table gather, both releasing the GIL inside numpy;
* views of a 64-aligned transaction range are word *slices* of the
  parent's bitmaps, so a range view inherits them for free.

Bit layout: transaction ``t`` lives in word ``t >> 6`` at bit ``t & 63``
(little-endian within the word).  Pad bits past ``n_transactions`` are
always zero, so popcounts never over-count.

A small content-addressed cache keyed by
:meth:`TransactionDatabase.fingerprint` lets independently built
databases with identical content share one bitmap build (the same
addressing scheme the engine's itemset cache uses).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..obs import kernel_timer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .transactions import TransactionDatabase

__all__ = [
    "PackedBitmaps",
    "popcount",
    "get_shared_bitmaps",
    "bitmap_cache_info",
    "clear_bitmap_cache",
]

#: popcount lookup table: uint16 value → number of set bits (0..16)
_POPCOUNT16 = np.zeros(1 << 16, dtype=np.uint8)
_v = np.arange(1 << 16, dtype=np.uint32)
for _s in range(16):
    _POPCOUNT16 += ((_v >> _s) & 1).astype(np.uint8)
del _v, _s

_WORD_BITS = 64
_LE_U64 = np.dtype("<u8")


def popcount(words: np.ndarray) -> int:
    """Total number of set bits in a uint64 word array."""
    words = np.ascontiguousarray(words)
    return int(_POPCOUNT16[words.view(np.uint16)].sum(dtype=np.int64))


class PackedBitmaps:
    """Per-item occurrence bitsets over one transaction database.

    ``words`` has shape ``(n_items, n_words)`` with
    ``n_words = ceil(n_transactions / 64)``; row ``i`` is item ``i``'s
    packed occurrence vector.
    """

    __slots__ = ("words", "n_transactions")

    def __init__(self, words: np.ndarray, n_transactions: int):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError("words must be 2-D (n_items, n_words)")
        expected = (n_transactions + _WORD_BITS - 1) // _WORD_BITS
        if words.shape[1] != expected:
            raise ValueError(
                f"expected {expected} words for {n_transactions} transactions, "
                f"got {words.shape[1]}"
            )
        self.words = words
        self.n_transactions = n_transactions

    # -- construction --------------------------------------------------------
    @classmethod
    def from_database(cls, db: "TransactionDatabase") -> "PackedBitmaps":
        """Build packed bitmaps straight from CSR storage.

        Fully vectorised: bits are grouped by (item, word) with one sort
        and OR-combined via ``np.bitwise_or.reduceat`` — no dense
        ``n_items × n_transactions`` intermediate is ever materialised.
        """
        n = len(db)
        n_items = db.n_items
        n_words = (n + _WORD_BITS - 1) // _WORD_BITS
        words = np.zeros((n_items, max(n_words, 0)), dtype=np.uint64)
        if db.indices.size and n_words:
            cols = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(db.indptr)
            )
            rows = db.indices.astype(np.int64)
            word_idx = cols >> 6
            bits = np.uint64(1) << (cols & 63).astype(np.uint64)
            flat = rows * n_words + word_idx
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
            bits = bits[order]
            starts = np.flatnonzero(
                np.concatenate(([True], flat[1:] != flat[:-1]))
            )
            words.reshape(-1)[flat[starts]] = np.bitwise_or.reduceat(
                bits, starts
            )
        return cls(words, n)

    @classmethod
    def from_onehot(cls, matrix: np.ndarray) -> "PackedBitmaps":
        """Build from a boolean one-hot matrix (n_transactions × n_items).

        Uses ``np.packbits`` along the transaction axis; bytes are
        assembled little-endian into uint64 words so bit ``t & 63`` of
        word ``t >> 6`` is transaction ``t`` on any host byte order.
        """
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError("one-hot matrix must be 2-D")
        n, n_items = matrix.shape
        n_words = (n + _WORD_BITS - 1) // _WORD_BITS
        packed = np.packbits(matrix.T, axis=1, bitorder="little")
        padded = np.zeros((n_items, n_words * 8), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        if sys.byteorder == "big":  # pragma: no cover - LE-only CI
            padded = padded.reshape(n_items, n_words, 8)[:, :, ::-1].reshape(
                n_items, -1
            )
        return cls(padded.view(_LE_U64).astype(np.uint64, copy=False), n)

    # -- views ---------------------------------------------------------------
    def slice_range(self, start: int, stop: int) -> "PackedBitmaps":
        """Bitmaps of the transaction range ``[start, stop)``.

        *start* must be 64-aligned so the range maps to whole words; the
        word block is a cheap slice-copy of this object's rows (with the
        tail bits of the final word masked off), which is how range
        views inherit the parent database's bitmaps instead of
        rebuilding their own from scratch.
        """
        if start % _WORD_BITS != 0:
            raise ValueError(f"start must be a multiple of 64, got {start}")
        if not 0 <= start <= stop <= self.n_transactions:
            raise ValueError(f"invalid range [{start}, {stop})")
        n = stop - start
        w0 = start >> 6
        w1 = w0 + (n + _WORD_BITS - 1) // _WORD_BITS
        # always copy: the tail masking below must never touch self.words
        words = self.words[:, w0:w1].copy()
        tail = n % _WORD_BITS
        if tail and words.shape[1]:
            words[:, -1] &= np.uint64((1 << tail) - 1)
        return PackedBitmaps(words, n)

    # -- counting ------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return self.words.shape[0]

    def row(self, item_id: int) -> np.ndarray:
        """Item *item_id*'s packed occurrence words (a read-only view)."""
        return self.words[item_id]

    def item_counts(self) -> np.ndarray:
        """Support count of every item, shape (n_items,)."""
        if self.words.size == 0:
            return np.zeros(self.n_items, dtype=np.int64)
        halves = self.words.view(np.uint16).reshape(self.n_items, -1)
        return _POPCOUNT16[halves].sum(axis=1, dtype=np.int64)

    def and_words(self, ids: Sequence[int]) -> np.ndarray:
        """AND of the given items' word rows (a fresh array)."""
        if not ids:
            raise ValueError("need at least one item id")
        acc = self.words[ids[0]].copy()
        for i in ids[1:]:
            acc &= self.words[i]
        return acc

    def support_count(self, ids: Sequence[int]) -> int:
        """σ(X) = popcount(AND of the items' bitsets)."""
        if not ids:
            return self.n_transactions
        if len(ids) == 1:
            return popcount(self.words[ids[0]])
        return popcount(self.and_words(ids))

    def to_bool(self, words: np.ndarray | None = None) -> np.ndarray:
        """Unpack a word row (or any AND result) to a boolean vector."""
        if words is None:
            raise ValueError("pass the word array to unpack")
        raw = np.ascontiguousarray(words, dtype=_LE_U64).view(np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        return bits[: self.n_transactions].astype(bool)

    def nbytes(self) -> int:
        return int(self.words.nbytes)

    def __repr__(self) -> str:
        return (
            f"PackedBitmaps(n_items={self.n_items}, "
            f"n_transactions={self.n_transactions}, "
            f"words={self.words.shape[1]})"
        )


# -- content-addressed bitmap cache ------------------------------------------
#: fingerprint → PackedBitmaps; small LRU, guarded for thread safety
_CACHE_MAX = 8
_CACHE: OrderedDict[str, PackedBitmaps] = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_HITS = 0
_CACHE_MISSES = 0


def get_shared_bitmaps(db: "TransactionDatabase") -> PackedBitmaps:
    """Bitmaps for *db*, shared across equal-content databases.

    Keyed by :meth:`TransactionDatabase.fingerprint`, so databases of
    equal content (a trace generated twice, say) resolve to one build.
    Falls through to a fresh :meth:`PackedBitmaps.from_database` on a
    miss (timed under the ``bitmap-build`` kernel).
    """
    global _CACHE_HITS, _CACHE_MISSES
    key = db.fingerprint()
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            _CACHE_HITS += 1
            return cached
    with kernel_timer("bitmap-build"):
        built = PackedBitmaps.from_database(db)
    with _CACHE_LOCK:
        _CACHE_MISSES += 1
        _CACHE[key] = built
        while len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return built


def bitmap_cache_info() -> dict[str, int]:
    """Lifetime counters of the shared bitmap cache."""
    with _CACHE_LOCK:
        return {
            "size": len(_CACHE),
            "hits": _CACHE_HITS,
            "misses": _CACHE_MISSES,
        }


def clear_bitmap_cache() -> None:
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0

