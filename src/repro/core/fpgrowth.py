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
row shapes across 100k jobs).  Masks are laid out in FP-tree prefix
order: rank *r* at word ``r >> 6``, bit ``63 - (r & 63)``, word 0 most
significant, so the numeric order of masks is the lexicographic order
over ranks 0, 1, 2, ... and cutting masks down to their ranks up to any
*r* keeps sorted masks sorted.  The recursion runs a level at a time.  A
level is the projected databases — conditional pattern bases — of every
suffix of one length, held as one array set: node id, mask words and
weight per row, node-major and in mask order within a node.  The level's
pair counts give every child's exact conditional counts.  At the root
and its children, a few dozen nodes holding most rows, they come from
one dense product per node; deeper, where nodes hold a few rows each,
from one weighted count over the ``(node, r, s)`` keys of the whole
level.  Every child of the level is then projected at once: the rows
holding its rank, cut to its prefix (equal cuts are neighbours, so they
merge without a sort), AND-ed down to its frequent lower ranks, and
sorted once to merge what that AND made equal.  Python loops run per
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
    """``(len(ranks), W)`` masks, row *i* holding only rank ``ranks[i]``:
    rank *r* at word ``r >> 6``, bit ``63 - (r & 63)``."""
    bits = np.zeros((ranks.size, n_words), dtype=_U64)
    top = np.uint64(1 << 63)
    bits[np.arange(ranks.size), ranks >> 6] = top >> (ranks & 63).astype(_U64)
    return bits


def _holds_pair(masks: np.ndarray) -> np.ndarray:
    """Which rows have two or more bits set."""
    return (masks & (masks - np.uint64(1))).any(axis=1) | (
        np.count_nonzero(masks, axis=1) > 1
    )


def _row_keys(masks: np.ndarray) -> tuple[np.ndarray, list]:
    """One integer key per row, ordered as the rows' masks are, and the
    tables :func:`_key_rows` turns keys back into rows with.

    The key is word 0 itself; each further word is folded in as the dense
    code of (key so far, word), so the key never overflows.
    """
    key = masks[:, 0]
    tables = []
    for word in masks.T[1:]:
        prefixes, prefix_code = np.unique(key, return_inverse=True)
        values, value_code = np.unique(word, return_inverse=True)
        key = prefix_code * values.size + value_code
        tables.append((prefixes, values))
    return key, tables


def _key_rows(key: np.ndarray, tables: list) -> np.ndarray:
    """The ``(rows, W)`` masks of keys made by :func:`_row_keys`."""
    words = []
    for prefixes, values in reversed(tables):
        prefix_code, value_code = np.divmod(key, values.size)
        words.append(values[value_code])
        key = prefixes[prefix_code]
    return np.column_stack([key, *reversed(words)]).astype(_U64, copy=False)


def _dedup(
    masks: np.ndarray, weights: np.ndarray, node: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse identical mask rows, summing their weights.

    One quicksort of one key brings equal masks together; callers keep
    a node's suffix bits in its rows, so equal masks never come from two
    nodes.  Rows come out node-major and, within a node, in numeric
    mask order.
    """
    key = _row_keys(masks)[0]
    order = np.argsort(key)
    key = key[order]
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    take = order[starts]
    weights = np.add.reduceat(weights[order], starts)
    # the sort left each node's rows in order but among other nodes' rows
    regroup = np.argsort(node[take] * take.size + np.arange(take.size))
    take = take[regroup]
    return masks[take], weights[regroup], node[take]


def _rank_masks(
    db: TransactionDatabase, ranked_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every transaction as a bitmask of its frequent-item ranks, deduplicated.

    Returns the distinct ``(rows, W)`` masks that hold two or more ranks,
    in numeric order, and how many transactions collapsed into each.
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
        # a gather through narrower ids casts them chunk by chunk, slowly
        ids = db.indices.astype(np.intp, copy=False)
        for word in range(n_words):
            masks[:, word] = np.bitwise_or.reduceat(bit_of[word][ids], starts)
    # every row weighs 1, so a value sort of the keys is all it takes
    # (with no index or inverse asked for, np.unique sorts values only)
    key, tables = _row_keys(masks[_holds_pair(masks)])
    uniq, counts = np.unique(key, return_counts=True)
    return _key_rows(uniq, tables), counts


def _unpack(masks: np.ndarray, n_ranks: int) -> np.ndarray:
    """``(n_ranks, rows)`` flags: ``[r, i]`` is whether row *i* holds rank *r*.

    Byteswapped, a row's bytes run from rank 0 up, most significant bit
    first.  The flags are rank-major, so each rank's rows are contiguous;
    one shift per bit position fills every eighth rank row (unpacking
    along the rank axis strides across rows and ran up to 12x slower).
    """
    rank_bytes = np.ascontiguousarray(masks.byteswap().view(np.uint8).T)
    flags = np.empty((8 * len(rank_bytes), len(masks)), dtype=np.uint8)
    for bit in range(8):
        np.bitwise_and(rank_bytes >> (7 - bit), 1, out=flags[bit::8])
    return flags[:n_ranks].view(bool)


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
        out += (bits * weights[lo : lo + step].astype(dtype)) @ bits.T
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
    row, rank = np.nonzero(_unpack(lower, n_ranks).T)
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


def _project(
    lower: np.ndarray,
    weights: np.ndarray,
    node: np.ndarray,
    child_of: np.ndarray,
    keep: np.ndarray,
    suffix_bits: np.ndarray,
    upto: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every child's rows: each ``(row, r)`` naming a child of the row's
    node, cut to ranks below *r* and AND-ed with the child's kept ranks,
    deduplicated per child.

    *lower* holds each node's rows contiguous and in numeric order.  The
    ``(r, row)`` entries are taken rank-major, so each child's entries
    are contiguous and in row order, and cutting a row to its ranks up
    to *r* keeps them in order: equal cuts are neighbours and merge by
    an adjacent compare.  Only the AND with the kept ranks reorders
    rows, so one sort follows it, on the rows the merge left.
    """
    n_nodes, n_ranks = child_of.shape
    n_words = lower.shape[1]
    has_child = np.zeros((n_nodes, n_words), dtype=_U64)
    named = np.nonzero(child_of >= 0)
    np.bitwise_or.at(has_child, named[0], _rank_bits(named[1], n_words))
    flags = _unpack(lower & has_child[node], n_ranks)
    per_rank = np.count_nonzero(flags, axis=1)
    row = np.flatnonzero(flags)
    row -= np.repeat(np.arange(0, flags.size, len(lower)), per_rank)
    at = node[row]
    new = np.ones(row.size, dtype=bool)
    new[1:] = at[1:] != at[:-1]
    # each row cut to its ranks up to r: r's own bit splits runs of ranks
    cut = [lower[:, w][row] & np.repeat(upto[:, w], per_rank) for w in range(n_words)]
    for word in cut:
        new[1:] |= word[1:] != word[:-1]
    starts = np.flatnonzero(new)
    weights = np.add.reduceat(weights[row], starts)
    rank = np.searchsorted(np.cumsum(per_rank), starts, side="right")
    target = child_of.reshape(-1)[at[starts] * n_ranks + rank]
    cut = np.column_stack([word[starts] for word in cut]) & keep[target]
    paired = _holds_pair(cut)
    target = target[paired]
    return _dedup(cut[paired] | suffix_bits[target], weights[paired], target)


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

    Every level is node-major, nodes (numbered in ``(parent, r)`` order)
    in id order, and each node's rows are in numeric mask order: the
    order :func:`_project` needs to merge a child's rows by neighbours.
    """
    n_ranks = ranked_ids.size
    n_words = masks.shape[1]
    # upto[r]: ranks 0 .. r
    upto = np.bitwise_or.accumulate(_rank_bits(np.arange(n_ranks), n_words), axis=0)
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
        masks, weights, node = _project(
            lower, weights, node, child_of, keep, suffix_bits, upto
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
