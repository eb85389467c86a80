"""FP-Growth frequent-itemset mining (Han et al., 2004).

The paper uses FP-Growth as its mining workhorse (Sec. III-C): "FP-Growth
uses a data structure called FP-tree to deal with performance issues
(exponential runtime and memory requirements) presented in the Apriori
algorithm when the database is large."

The production kernel is FP-Growth over packed projected databases
instead of a pointer tree.  Each transaction becomes a bitmask of its
frequent items' frequency ranks (``(rows, W)`` uint64, ``W = ceil(n_ranks
/ 64)``; the paper's traces have ``W = 1``), and identical masks collapse
into weighted rows (quartile-binned traces repeat the same few thousand
row shapes across 100k jobs).  At each node one pair-count product over
the rows gives every child's exact conditional counts, and a child's
projected database — the conditional pattern base — is the rows holding
its rank, AND-ed down to its frequent lower ranks and deduplicated again.
All of it is numpy over the deduplicated rows; no Python runs per
transaction or per tree node.

* Items are ranked in decreasing global-frequency order (ties broken by
  item id, deterministic); an itemset's extensions come from its
  less-frequent member's higher-ranked items, the FP-tree's prefixes.
* ``max_len`` bounds itemset length *during* the recursion (the paper
  limits frequent itemsets to length 5), so oversized branches are never
  explored rather than filtered afterwards.
* The output is a plain ``dict[frozenset[int], int]`` of support counts,
  shared with the Apriori and Eclat implementations so all miners are
  property-tested against the set-inclusion oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .bitmap import kernel_timer
from .transactions import TransactionDatabase

__all__ = ["fpgrowth"]


def _min_count(n: int, min_support: float) -> int:
    # "support >= threshold" on real counts: ceil(min_support * n) with a
    # floor of 1 so that support-0 itemsets are never emitted
    return max(1, int(np.ceil(min_support * n - 1e-9)))


def _validate(min_support: float, max_len: int | None) -> None:
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support must be in [0, 1], got {min_support}")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1 or None")


#: rows × ranks per block of the pair-count product: bounds its float64
#: temporaries to a few tens of MB however many rows or ranks a node has
_PAIR_BLOCK = 1 << 22

_U64 = np.dtype("<u8")


def _rank_masks(
    db: TransactionDatabase, ranked_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every transaction as a bitmask of its frequent-item ranks, deduplicated.

    Rank *r* lives in word ``r >> 6`` at bit ``r & 63``.  Returns the
    distinct nonzero ``(rows, W)`` masks and how many transactions
    collapsed into each.
    """
    n_words = (ranked_ids.size + 63) >> 6
    rank_of = np.full(db.n_items, -1, dtype=np.int64)
    rank_of[ranked_ids] = np.arange(ranked_ids.size, dtype=np.int64)
    ranks = rank_of[db.indices]
    bits = np.where(
        ranks >= 0, np.uint64(1) << (ranks & 63).astype(np.uint64), np.uint64(0)
    )
    # CSR order groups entries by transaction, so one OR-reduction per
    # word and nonempty transaction builds the masks without a sort
    starts = db.indptr[:-1][np.diff(db.indptr) > 0]
    masks = np.zeros((starts.size, n_words), dtype=_U64)
    if starts.size:
        for word in range(n_words):
            in_word = np.where((ranks >> 6) == word, bits, np.uint64(0))
            masks[:, word] = np.bitwise_or.reduceat(in_word, starts)
    nonzero = masks.any(axis=1)
    return _dedup(masks[nonzero], np.ones(int(nonzero.sum()), dtype=np.int64))


def _dedup(
    masks: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse identical mask rows, summing their weights."""
    if len(masks) < 2:
        return masks, weights
    order = np.lexsort(masks.T[::-1])
    masks = masks[order]
    first = np.concatenate(([True], (masks[1:] != masks[:-1]).any(axis=1)))
    starts = np.flatnonzero(first)
    return masks[starts], np.add.reduceat(weights[order], starts)


def _pair_counts(masks: np.ndarray, weights: np.ndarray, n_ranks: int) -> np.ndarray:
    """``C[r, s]``: total weight of the rows holding both rank *r* and *s*.

    The diagonal is each rank's own count.  The float64 sums are of
    integer weights below ``2**53``, hence exact integers.
    """
    out = np.zeros((n_ranks, n_ranks))
    step = max(1, _PAIR_BLOCK // n_ranks)
    for lo in range(0, len(masks), step):
        bits = np.unpackbits(
            masks[lo : lo + step].astype(_U64, copy=False).view(np.uint8),
            axis=1,
            count=n_ranks,
            bitorder="little",
        ).astype(np.float64)
        out += (bits * weights[lo : lo + step, None]).T @ bits
    return out


def _rank_set(ranks: np.ndarray, n_words: int) -> np.ndarray:
    """The ``(W,)`` mask with the bits of *ranks* set."""
    flags = np.zeros(n_words * 64, dtype=bool)
    flags[ranks] = True
    return np.packbits(flags, bitorder="little").view(_U64)


def _mine_masks(
    masks: np.ndarray,
    weights: np.ndarray,
    ranks: np.ndarray,
    suffix: tuple[int, ...],
    ids: Sequence[int],
    min_count: int,
    max_len: int | None,
    out: dict[frozenset[int], int],
) -> None:
    """Emit every frequent ``suffix + (r, s)`` and recurse into ``suffix + (r,)``.

    *masks*/*weights* are the projected database of *suffix*: the rows
    containing it, cut to its frequent lower-ranked items *ranks* (each
    ``suffix + (r,)`` is already emitted).  One pair-count product gives
    every child's conditional counts at once, so the level below the
    ``max_len`` limit is emitted without projecting.
    """
    pairs = _pair_counts(masks, weights, int(ranks[-1]) + 1)
    at_limit = max_len is not None and len(suffix) + 2 >= max_len
    n_words = masks.shape[1]
    for r in ranks[::-1].tolist():
        row = pairs[r, :r]
        below = np.flatnonzero(row >= min_count)
        if below.size == 0:
            continue
        prefix = suffix + (ids[r],)
        for s in below.tolist():
            out[frozenset(prefix + (ids[s],))] = int(row[s])
        if at_limit:
            continue
        word, bit = divmod(r, 64)
        rows = ((masks[:, word] >> np.uint64(bit)) & np.uint64(1)).astype(bool)
        child = masks[rows] & _rank_set(below, n_words)
        keep = child.any(axis=1)
        child, child_weights = _dedup(child[keep], weights[rows][keep])
        _mine_masks(
            child, child_weights, below, prefix, ids, min_count, max_len, out
        )


def fpgrowth(
    db: TransactionDatabase,
    min_support: float,
    max_len: int | None = None,
) -> dict[frozenset[int], int]:
    """Mine all frequent itemsets of *db* with support ≥ *min_support*.

    Parameters
    ----------
    db:
        The transaction database.
    min_support:
        Relative support threshold in ``[0, 1]`` (the paper uses 0.05).
    max_len:
        Maximum itemset length (the paper uses 5), or None for unbounded.

    Returns
    -------
    dict mapping ``frozenset`` of item ids → absolute support count.

    Answer-identical to support counted by set inclusion (property-tested
    against ``tests/oracles.py``).
    """
    _validate(min_support, max_len)
    n = len(db)
    if n == 0:
        return {}
    min_count = _min_count(n, min_support)

    counts = db.item_support_counts()
    freq_ids = np.flatnonzero(counts >= min_count)
    out: dict[frozenset[int], int] = {
        frozenset((int(i),)): int(counts[i]) for i in freq_ids
    }
    if freq_ids.size == 0 or max_len == 1:
        return out

    with kernel_timer("fpgrowth-masks"):
        # rank items by (-count, id); rank 0 = most frequent
        order = np.lexsort((freq_ids, -counts[freq_ids]))
        ranked_ids = freq_ids[order].astype(np.int64)
        masks, weights = _rank_masks(db, ranked_ids)
        _mine_masks(
            masks,
            weights,
            np.arange(ranked_ids.size),
            (),
            ranked_ids.tolist(),
            min_count,
            max_len,
            out,
        )
    return out
