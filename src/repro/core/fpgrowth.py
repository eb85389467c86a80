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
row shapes across 100k jobs).  The recursion runs a level at a time.  A
level is the projected databases — conditional pattern bases — of every
suffix of one length, held as one array set: node id, mask words and
weight per row.  The level's pair counts give every child's exact
conditional counts.  At the root and its children, a few dozen nodes
holding most rows, they come from one dense product per node; deeper,
where nodes hold a few rows each, from one weighted count over the
``(node, r, s)`` keys of the whole level.  Every child of the level is
then projected at once: the rows holding its rank, AND-ed down to its
frequent lower ranks and deduplicated per node.  Python loops run per
level and per node of the first two levels only; the deeper nodes (95 %
of them on 20k PAI jobs) and the transactions cost no Python of their
own, and only emitting an itemset builds a Python object.

* Items are ranked in decreasing global-frequency order (ties broken by
  item id, deterministic); an itemset's extensions come from its
  less-frequent member's higher-ranked items, the FP-tree's prefixes.
* ``max_len`` bounds itemset length *during* the recursion (the paper
  limits frequent itemsets to length 5): the level at the limit is
  emitted from its pair counts and nothing below it is projected.
* The output is a plain ``dict[frozenset[int], int]`` of support counts,
  shared with the Apriori and Eclat implementations so all miners are
  property-tested against the set-inclusion oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from ..obs import kernel_timer
from .transactions import TransactionDatabase, min_support_count

__all__ = ["fpgrowth"]


def _validate(min_support: float, max_len: int | None) -> None:
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support must be in [0, 1], got {min_support}")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1 or None")


#: rows × ranks per block of the pair-count product: bounds its float
#: temporaries to a few tens of MB however many rows or ranks a node has
_PAIR_BLOCK = 1 << 22

#: the largest total weight float32 pair counts hold exactly: every
#: integer up to it is a float32
_FLOAT32_EXACT = 1 << 24

_U64 = np.dtype("<u8")


def _rank_bits(ranks: np.ndarray, n_words: int) -> np.ndarray:
    """``(len(ranks), W)`` masks, row *i* holding only rank ``ranks[i]``."""
    bits = np.zeros((ranks.size, n_words), dtype=_U64)
    bits[np.arange(ranks.size), ranks >> 6] = np.uint64(1) << (ranks & 63).astype(_U64)
    return bits


def _holds_pair(masks: np.ndarray) -> np.ndarray:
    """Which rows have two or more bits set."""
    return (masks & (masks - np.uint64(1))).any(axis=1) | (
        np.count_nonzero(masks, axis=1) > 1
    )


def _dedup(
    masks: np.ndarray, weights: np.ndarray, node: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse identical mask rows, summing their weights.

    Rows come out in numeric order of their masks (word ``W - 1`` most
    significant): one quicksort of a single key, the mask itself when
    ``W = 1`` and otherwise a dense code of the words built from the top
    down.  Callers keep a node's suffix bits in its rows, so equal masks
    never come from two nodes.
    """
    if len(masks) == 0:
        return masks, weights, node
    key = masks[:, -1]
    for word in masks.T[-2::-1]:
        values, inverse = np.unique(word, return_inverse=True)
        key = np.unique(key, return_inverse=True)[1] * values.size + inverse
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    take = order[starts]
    return masks[take], np.add.reduceat(weights[order], starts), node[take]


def _rank_masks(
    db: TransactionDatabase, ranked_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every transaction as a bitmask of its frequent-item ranks, deduplicated.

    Rank *r* lives in word ``r >> 6`` at bit ``r & 63``.  Returns the
    distinct ``(rows, W)`` masks that hold two or more ranks and how many
    transactions collapsed into each.
    """
    n_words = (ranked_ids.size + 63) >> 6
    # bit_of[word, item]: the item's rank bit if it falls in that word
    bit_of = np.zeros((n_words, db.n_items), dtype=_U64)
    bit_of[:, ranked_ids] = _rank_bits(np.arange(ranked_ids.size), n_words).T
    # CSR order groups entries by transaction, so one OR-reduction per
    # word and nonempty transaction builds the masks without a sort
    starts = db.indptr[:-1][np.diff(db.indptr) > 0]
    masks = np.zeros((starts.size, n_words), dtype=_U64)
    if starts.size:
        for word in range(n_words):
            masks[:, word] = np.bitwise_or.reduceat(bit_of[word][db.indices], starts)
    masks = masks[_holds_pair(masks)]
    ones = np.ones(len(masks), dtype=np.int64)
    return _dedup(masks, ones, np.zeros(len(masks), dtype=np.int64))[:2]


def _unpack(masks: np.ndarray, n_ranks: int) -> np.ndarray:
    """``(rows, n_ranks)`` flags of ranks ``0 .. n_ranks - 1``."""
    return np.unpackbits(
        masks.view(np.uint8), axis=1, count=n_ranks, bitorder="little"
    ).view(bool)


def _set_ranks(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, rank)`` of every set flag, ascending within a row."""
    return np.divmod(np.flatnonzero(flags), flags.shape[1])


def _pair_counts(masks: np.ndarray, weights: np.ndarray, n_ranks: int) -> np.ndarray:
    """``C[r, s]``: total weight of the rows holding both rank *r* and *s*,
    over ranks below *n_ranks*.

    The diagonal is each rank's own count.  Every partial sum of the
    product is an integer no larger than the weights' total, so it is
    exact, in whatever order BLAS adds, in float32 while that total is at
    most ``2**24`` (twice as many lanes per vector) and in float64 above.
    """
    dtype = np.float32 if int(weights.sum()) <= _FLOAT32_EXACT else np.float64
    out = np.zeros((n_ranks, n_ranks), dtype=dtype)
    step = max(1, _PAIR_BLOCK // n_ranks)
    for lo in range(0, len(masks), step):
        bits = _unpack(masks[lo : lo + step], n_ranks).astype(dtype)
        out += (bits * weights[lo : lo + step, None].astype(dtype)).T @ bits
    return out.astype(np.float64)


#: per level: the node, ranks ``r > s`` and count of each frequent pair
_Pairs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _dense_pairs(
    lower: np.ndarray,
    weights: np.ndarray,
    node: np.ndarray,
    tops: np.ndarray,
    min_count: int,
) -> _Pairs:
    """Frequent ``(node, r, s, count)``, ``r > s``, sorted by ``(node, r,
    s)``: one pair-count product per node.  *node* must be sorted."""
    found = []
    starts = np.flatnonzero(np.diff(node, prepend=-1))
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(node)]):
        k = int(node[lo])
        counts = _pair_counts(lower[lo:hi], weights[lo:hi], int(tops[k]))
        r, s = np.nonzero(np.tril(counts, -1) >= min_count)
        found.append((np.full(r.size, k), r, s, counts[r, s]))
    return tuple(np.concatenate(column) for column in zip(*found))


def _group_sum(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct *keys*, ascending, and the summed weight of each."""
    keys, inverse = np.unique(keys, return_inverse=True)
    return keys, np.bincount(inverse, weights)


def _level_pairs(
    lower: np.ndarray,
    weights: np.ndarray,
    node: np.ndarray,
    n_ranks: int,
    min_count: int,
) -> _Pairs:
    """Frequent ``(node, r, s, count)``, ``r > s``, sorted by ``(node, r,
    s)``, for a whole level: a weighted count over the ``(node, r, s)``
    keys of every row's pairs of set ranks, at most ``_PAIR_BLOCK``
    pairs at a time.
    """
    row, rank = _set_ranks(_unpack(lower, n_ranks))
    per_row = np.bincount(row, minlength=len(weights))
    position = np.arange(row.size) - (np.cumsum(per_row) - per_row)[row]
    above = per_row[row] - position - 1  # set ranks above each entry
    keys, counts = [], []
    step = max(1, _PAIR_BLOCK // n_ranks)
    for lo in range(0, row.size, step):
        n_above = above[lo : lo + step]
        first = np.repeat(np.arange(lo, lo + n_above.size), n_above)
        offset = np.arange(first.size) - np.repeat(np.cumsum(n_above) - n_above, n_above)
        second = first + 1 + offset
        pair_row = row[first]
        block = (node[pair_row] * n_ranks + rank[second]) * n_ranks + rank[first]
        block_keys, block_counts = _group_sum(block, weights[pair_row])
        keys.append(block_keys)
        counts.append(block_counts)
    keys, counts = _group_sum(np.concatenate(keys), np.concatenate(counts))
    frequent = counts >= min_count
    pair_node, pair = np.divmod(keys[frequent], n_ranks * n_ranks)
    return (pair_node, *np.divmod(pair, n_ranks), counts[frequent])


def _mine_levels(
    masks: np.ndarray,
    weights: np.ndarray,
    ranked_ids: np.ndarray,
    min_count: int,
    max_len: int | None,
    out: dict[frozenset[int], int],
) -> None:
    """Emit every frequent itemset of two or more items, a level at a time.

    A level holds the projected databases of every suffix of one length
    as one array set: node id, mask words and weight per row.  A node's
    rows hold its suffix's ranks plus its frequent lower ranks (below
    ``tops[node]``); every ``suffix + (r,)`` is already emitted, so the
    node's pair counts over the lower ranks give every child's
    conditional counts at once, and the ``max_len`` level is emitted
    without projecting.

    :func:`_dedup` leaves a level's rows in numeric mask order.  A row's
    highest bits are its suffix and its other bits lie below the
    suffix's lowest rank, so each node's rows are contiguous, and nodes
    (numbered in ``(parent, r)`` order) come in id order.
    """
    n_ranks = ranked_ids.size
    n_words = masks.shape[1]
    node = np.zeros(len(masks), dtype=np.int64)
    suffixes = np.zeros((1, 0), dtype=np.int64)  # each node's suffix ranks
    suffix_bits = np.zeros((1, n_words), dtype=_U64)
    tops = np.array([n_ranks])
    depth = 0
    while len(masks):
        lower = masks & ~suffix_bits[node]
        if depth <= 1:
            # the root and its children hold most rows; the product's
            # cost per node is paid a few dozen times at most
            pair_node, r, s, counts = _dense_pairs(lower, weights, node, tops, min_count)
        else:
            pair_node, r, s, counts = _level_pairs(
                lower, weights, node, n_ranks, min_count
            )
        items = ranked_ids[np.column_stack((suffixes[pair_node], r, s))]
        out.update(zip(map(frozenset, items.tolist()), counts.astype(np.int64).tolist()))
        depth += 1
        if r.size == 0 or (max_len is not None and depth + 2 > max_len):
            return
        # one child per (node, r) with a frequent pair, keeping the ranks
        # s of those pairs
        parent_key = pair_node * n_ranks + r
        new = np.concatenate(([True], parent_key[1:] != parent_key[:-1]))
        parent, child_rank = pair_node[new], r[new]
        starts = np.flatnonzero(new)
        keep = np.bitwise_or.reduceat(_rank_bits(s, n_words), starts, axis=0)
        child_of = np.full((len(suffixes), n_ranks), -1)
        child_of.reshape(-1)[parent_key[new]] = np.arange(starts.size)
        suffixes = np.column_stack((suffixes[parent], child_rank))
        suffix_bits = suffix_bits[parent] | _rank_bits(child_rank, n_words)
        tops = s[np.append(starts[1:], s.size) - 1] + 1
        # project: every (row, rank) that names a child, AND-ed down to
        # that child's kept ranks
        row, rank = _set_ranks(_unpack(lower, n_ranks) & (child_of >= 0)[node])
        target = child_of[node[row], rank]
        projected = lower[row] & keep[target]
        paired = _holds_pair(projected)
        row, target = row[paired], target[paired]
        masks, weights, node = _dedup(
            projected[paired] | suffix_bits[target], weights[row], target
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
    min_count = min_support_count(n, min_support)

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
        _mine_levels(masks, weights, ranked_ids, min_count, max_len, out)
    return out
