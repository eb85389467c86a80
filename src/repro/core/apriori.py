"""Apriori frequent-itemset mining (Agrawal & Srikant, 1994).

The classical baseline the paper contrasts FP-Growth against
(Sec. III-C).  Level-wise: frequent k-itemsets are joined into (k+1)
candidates, candidates with an infrequent k-subset are pruned
(anti-monotonicity of support), and survivors are counted against the
database.

Counting uses packed vertical TID-bitsets (word-wise AND + popcount via
:mod:`repro.core.bitmap`), which keeps the inner loop vectorised — the
per-transaction subset test of the textbook formulation is what makes
naive Apriori unusably slow in Python.  The *algorithmic* structure
(candidate explosion at low support) is preserved, which is what the
runtime-comparison benchmark measures.
"""

from __future__ import annotations

import numpy as np

from ..obs import kernel_timer
from .bitmap import popcount
from .transactions import TransactionDatabase, min_support_count

__all__ = ["apriori", "apriori_naive", "generate_candidates"]


def generate_candidates(frequent_k: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """F_k × F_k join with prefix sharing, plus the subset-pruning step.

    *frequent_k* must contain sorted id tuples of equal length k; returns
    sorted candidate (k+1)-tuples whose every k-subset is in *frequent_k*.
    """
    if not frequent_k:
        return []
    k = len(frequent_k[0])
    frequent_set = set(frequent_k)
    ordered = sorted(frequent_k)
    candidates: list[tuple[int, ...]] = []
    # classic join: two k-itemsets sharing the first k-1 items combine into
    # one (k+1)-itemset
    for a_idx in range(len(ordered)):
        a = ordered[a_idx]
        prefix = a[:-1]
        for b_idx in range(a_idx + 1, len(ordered)):
            b = ordered[b_idx]
            if b[:-1] != prefix:
                break  # sorted order ⇒ no later tuple shares this prefix
            candidate = a + (b[-1],)
            # prune: all k-subsets must be frequent; the two parents are by
            # construction, so check only subsets dropping one of the shared
            # prefix items
            if k == 1 or all(
                candidate[:i] + candidate[i + 1 :] in frequent_set
                for i in range(k - 1)
            ):
                candidates.append(candidate)
    return candidates


def apriori(
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

    out: dict[frozenset[int], int] = {}

    # level 1 straight from the item histogram
    item_counts = db.item_support_counts()
    frequent_1 = [int(i) for i in np.flatnonzero(item_counts >= min_count)]
    for i in frequent_1:
        out[frozenset((i,))] = int(item_counts[i])
    if max_len == 1 or not frequent_1:
        return out

    words = db.bitmaps().words
    #: itemset tuple → its packed occurrence words, reused to extend to k+1
    level_masks: dict[tuple[int, ...], np.ndarray] = {
        (i,): words[i] for i in frequent_1
    }
    frequent_k = [(i,) for i in frequent_1]
    k = 1
    with kernel_timer("apriori-bitmap"):
        while frequent_k and (max_len is None or k < max_len):
            candidates = generate_candidates(frequent_k)
            next_masks: dict[tuple[int, ...], np.ndarray] = {}
            next_frequent: list[tuple[int, ...]] = []
            for cand in candidates:
                # extend the cached k-mask of the prefix with the last item
                mask = level_masks[cand[:-1]] & words[cand[-1]]
                count = popcount(mask)
                if count >= min_count:
                    out[frozenset(cand)] = count
                    next_masks[cand] = mask
                    next_frequent.append(cand)
            level_masks = next_masks
            frequent_k = next_frequent
            k += 1
    return out


def apriori_naive(
    db: TransactionDatabase,
    min_support: float,
    max_len: int | None = None,
) -> dict[frozenset[int], int]:
    """Textbook Apriori with per-transaction subset counting.

    This is the formulation whose "exponential runtime and memory
    requirements … when the database is large" the paper cites as the
    reason to use FP-Growth (Sec. III-C): every level re-scans the whole
    database and tests each candidate against each transaction.  Kept as
    the honest baseline for the algorithm-comparison bench; the answer is
    identical to :func:`apriori` and :func:`fpgrowth` (property-tested).
    """
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support must be in [0, 1], got {min_support}")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1 or None")
    n = len(db)
    if n == 0:
        return {}
    min_count = min_support_count(n, min_support)

    transactions = [frozenset(t.tolist()) for t in db.iter_id_transactions()]
    out: dict[frozenset[int], int] = {}

    item_counts = db.item_support_counts()
    frequent_k = sorted(
        (int(i),) for i in np.flatnonzero(item_counts >= min_count)
    )
    for (i,) in frequent_k:
        out[frozenset((i,))] = int(item_counts[i])

    k = 1
    while frequent_k and (max_len is None or k < max_len):
        candidates = generate_candidates(frequent_k)
        if not candidates:
            break
        counts = {cand: 0 for cand in candidates}
        candidate_sets = {cand: frozenset(cand) for cand in candidates}
        # the expensive part: full database scan with subset tests
        for transaction in transactions:
            if len(transaction) <= k:
                continue
            for cand in candidates:
                if candidate_sets[cand] <= transaction:
                    counts[cand] += 1
        frequent_k = []
        for cand, count in counts.items():
            if count >= min_count:
                out[candidate_sets[cand]] = count
                frequent_k.append(cand)
        frequent_k.sort()
        k += 1
    return out
