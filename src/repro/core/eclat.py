"""Eclat frequent-itemset mining (Zaki, 2000) over packed TID-bitsets.

A depth-first alternative included as a second baseline: each itemset
carries its transaction-occurrence bitset (64 transactions per uint64
word), and extending an itemset is one word-wise AND followed by a
popcount — the dEclat-style vertical representation, 8× smaller and
proportionally less memory traffic than dense boolean vectors.  Matches
:func:`fpgrowth`/:func:`apriori` output exactly (property-tested), and
tends to win on dense, narrow databases — exactly the shape produced by
quartile-binned trace tables.
"""

from __future__ import annotations

import numpy as np

from ..obs import kernel_timer
from .bitmap import popcount
from .transactions import TransactionDatabase, min_support_count

__all__ = ["eclat"]


def eclat(
    db: TransactionDatabase,
    min_support: float,
    max_len: int | None = None,
) -> dict[frozenset[int], int]:
    """Mine all frequent itemsets; same contract as :func:`fpgrowth`."""
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support must be in [0, 1], got {min_support}")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1 or None")
    n = len(db)
    if n == 0:
        return {}
    min_count = min_support_count(n, min_support)

    item_counts = db.item_support_counts()
    frequent_items = [int(i) for i in np.flatnonzero(item_counts >= min_count)]
    words = db.bitmaps().words

    out: dict[frozenset[int], int] = {}

    def extend(prefix: tuple[int, ...], mask: np.ndarray, tail: list[int]) -> None:
        """DFS: try appending each tail item (ids ascending) to *prefix*."""
        for pos, item in enumerate(tail):
            new_mask = mask & words[item]
            count = popcount(new_mask)
            if count < min_count:
                continue
            new_prefix = prefix + (item,)
            out[frozenset(new_prefix)] = count
            if max_len is None or len(new_prefix) < max_len:
                extend(new_prefix, new_mask, tail[pos + 1 :])

    with kernel_timer("eclat-bitmap"):
        for pos, item in enumerate(frequent_items):
            out[frozenset((item,))] = int(item_counts[item])
            if max_len is None or max_len > 1:
                extend((item,), words[item], frequent_items[pos + 1 :])
    return out
