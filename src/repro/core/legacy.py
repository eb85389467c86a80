"""Dense-boolean reference implementations of the mining kernels.

Before the packed-bitmap kernel (:mod:`repro.core.bitmap`), Eclat and
Apriori ran over a dense boolean occurrence matrix of
``n_items × n_transactions`` *bytes*.  Those code paths live on here,
verbatim, for two jobs:

* **equivalence contracts** — the property tests assert the packed
  kernel produces bit-identical itemset tables against these references
  on random databases and on the three synthetic traces;
* **benchmarking** — ``benchmarks/bench_mining_throughput.py`` reports
  kernel-vs-legacy speedups into ``BENCH_mining.json``.

Nothing in the production path imports this module; it exists so the
fast kernels always have a slow, obviously-correct twin to answer to.
"""

from __future__ import annotations

import numpy as np

from .transactions import TransactionDatabase

__all__ = [
    "dense_vertical",
    "eclat_dense",
    "apriori_dense",
]


def dense_vertical(db: TransactionDatabase) -> np.ndarray:
    """Boolean occurrence matrix of shape (n_items, n_transactions).

    The representation the packed kernel replaced: one byte per
    (item, transaction) cell, built fresh on every call (no cache).
    """
    mat = np.zeros((db.n_items, len(db)), dtype=bool)
    rows = np.repeat(np.arange(len(db), dtype=np.int64), np.diff(db.indptr))
    mat[db.indices, rows] = True
    return mat


def eclat_dense(
    db: TransactionDatabase,
    min_support: float,
    max_len: int | None = None,
) -> dict[frozenset[int], int]:
    """Eclat over dense boolean vectors; same contract as :func:`eclat`."""
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support must be in [0, 1], got {min_support}")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1 or None")
    n = len(db)
    if n == 0:
        return {}
    min_count = max(1, int(np.ceil(min_support * n - 1e-9)))

    item_counts = db.item_support_counts()
    frequent_items = [int(i) for i in np.flatnonzero(item_counts >= min_count)]
    vertical = dense_vertical(db)

    out: dict[frozenset[int], int] = {}

    def extend(prefix: tuple[int, ...], mask: np.ndarray, tail: list[int]) -> None:
        for pos, item in enumerate(tail):
            new_mask = mask & vertical[item]
            count = int(new_mask.sum())
            if count < min_count:
                continue
            new_prefix = prefix + (item,)
            out[frozenset(new_prefix)] = count
            if max_len is None or len(new_prefix) < max_len:
                extend(new_prefix, new_mask, tail[pos + 1 :])

    for pos, item in enumerate(frequent_items):
        out[frozenset((item,))] = int(item_counts[item])
        if max_len is None or max_len > 1:
            extend((item,), vertical[item], frequent_items[pos + 1 :])
    return out


def apriori_dense(
    db: TransactionDatabase,
    min_support: float,
    max_len: int | None = None,
) -> dict[frozenset[int], int]:
    """Level-wise Apriori over dense vectors; same contract as :func:`apriori`."""
    from .apriori import generate_candidates

    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support must be in [0, 1], got {min_support}")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1 or None")
    n = len(db)
    if n == 0:
        return {}
    min_count = max(1, int(np.ceil(min_support * n - 1e-9)))

    out: dict[frozenset[int], int] = {}

    item_counts = db.item_support_counts()
    frequent_1 = [int(i) for i in np.flatnonzero(item_counts >= min_count)]
    for i in frequent_1:
        out[frozenset((i,))] = int(item_counts[i])
    if max_len == 1 or not frequent_1:
        return out

    vertical = dense_vertical(db)
    level_masks: dict[tuple[int, ...], np.ndarray] = {
        (i,): vertical[i] for i in frequent_1
    }
    frequent_k = [(i,) for i in frequent_1]
    k = 1
    while frequent_k and (max_len is None or k < max_len):
        candidates = generate_candidates(frequent_k)
        next_masks: dict[tuple[int, ...], np.ndarray] = {}
        next_frequent: list[tuple[int, ...]] = []
        for cand in candidates:
            mask = level_masks[cand[:-1]] & vertical[cand[-1]]
            count = int(mask.sum())
            if count >= min_count:
                out[frozenset(cand)] = count
                next_masks[cand] = mask
                next_frequent.append(cand)
        level_masks = next_masks
        frequent_k = next_frequent
        k += 1
    return out
