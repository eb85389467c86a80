"""Packed-bitmask batch match kernel — the serving data plane's core.

The service's batcher
(:meth:`~repro.serve.service.RuleService._batch_loop`) holds a whole
micro-batch in hand when it wakes, so matching is a handful of NumPy
passes over packed bitmasks, the same uint64 language the mining kernel
speaks (:mod:`repro.core.bitmap`).  Every request goes through it; a
lone request is a batch of one.

Compilation (once per index build, i.e. once per hot-swap):

* every rule's antecedent and consequent become one row of a
  ``(n_rules, n_words)`` uint64 mask matrix over the book's item
  id-space (bit ``i & 63`` of word ``i >> 6`` set iff item ``i`` is on
  that side — :func:`repro.core.ruletable.pack_side_masks`);
* antecedent/consequent sizes are int32 columns.

Matching a micro-batch:

* each job is encoded as one row of a ``(n_jobs, n_words)`` uint64
  bit-matrix (unknown items having already been dropped by the index's
  memoised canonicaliser);
* a rule **fires** on a job iff its antecedent mask is a subset of the
  job row — ``(job & ant) == ant`` word-wise, no popcount needed;
* **consequent observed** is the same subset test on the consequent
  masks, evaluated only at the fired (job, rule) pairs;
* **near-misses** use the popcount form: ``hits == ant_size - 1`` with
  ``hits = popcount(job & ant)`` via the mining kernel's 16-bit LUT,
  and the single missing item is read straight out of ``ant & ~job``.

Rule blocks are chunked so the broadcast temporaries stay bounded no
matter how large the book or the batch is; results are written into one
pre-allocated ``(n_jobs, n_rules)`` output so ``np.nonzero`` yields the
fired pairs in row-major order — rule ids ascending within each job,
which *is* the canonical (lift, confidence, support) ranking.
"""

from __future__ import annotations

import numpy as np

from ..core.bitmap import _POPCOUNT16
from ..core.ruletable import RuleTable

__all__ = ["BatchMaskKernel", "encode_id_transactions"]

#: ceiling on broadcast temporary size, in uint64 words per chunk —
#: bounds peak memory at ~16 MiB regardless of book or batch size
_CHUNK_WORDS = 1 << 21

_WORD_BITS = 64


def encode_id_transactions(
    id_rows: list[list[int]], n_words: int
) -> np.ndarray:
    """Pack per-job item-id lists into a ``(n_jobs, n_words)`` bit-matrix.

    The same packing :func:`~repro.core.ruletable.pack_side_masks` uses
    for rule sides, applied to the incoming micro-batch: bit ``i & 63``
    of word ``i >> 6`` is item ``i``.  Each row is OR-ed into one Python
    int and written out little-endian, which *is* that word layout —
    duplicate ids collapse, and a row costs a few microseconds where a
    scattered ``np.bitwise_or.at`` costs tens.  Ids must be known to the
    vocabulary, i.e. below ``64 * n_words``.
    """
    n_words = max(1, n_words)
    width = 8 * n_words
    rows = []
    for row in id_rows:
        bits = 0
        for i in row:
            bits |= 1 << i
        rows.append(bits.to_bytes(width, "little"))
    packed = np.frombuffer(bytearray(b"".join(rows)), dtype="<u8")
    return packed.astype(np.uint64, copy=False).reshape(len(id_rows), n_words)


class BatchMaskKernel:
    """Compiled bitmask form of one rule table, ready for batch matching.

    Immutable once built; a rulebook hot-swap builds a fresh kernel as
    part of the new :class:`~repro.serve.index.RuleIndex`, so in-flight
    batches keep matching against the old masks (the flip marker applies
    the new index only at a micro-batch boundary).
    """

    __slots__ = (
        "ant_masks",
        "cons_masks",
        "ant_sizes",
        "cons_sizes",
        "n_words",
        "n_rules",
        "_has_ant",
    )

    def __init__(self, table: RuleTable):
        self.ant_masks = np.ascontiguousarray(table.side_masks("antecedent"))
        self.cons_masks = np.ascontiguousarray(table.side_masks("consequent"))
        self.ant_sizes = table.ant_sizes().astype(np.int32)
        self.cons_sizes = table.cons_sizes().astype(np.int32)
        self.n_rules = len(table)
        self.n_words = int(self.ant_masks.shape[1])
        # a rule with an empty antecedent has no evidence to fire on
        # (the countdown oracle needs at least one hit), so mask it out
        self._has_ant = self.ant_sizes > 0

    @classmethod
    def from_masks(
        cls,
        ant_masks: np.ndarray,
        cons_masks: np.ndarray,
        ant_sizes: np.ndarray,
        cons_sizes: np.ndarray,
    ) -> "BatchMaskKernel":
        """Adopt already-packed mask matrices without recompiling them.

        The shm attach path: mask rows come in as read-only zero-copy
        views of a published segment, so construction is O(1) — no
        :func:`~repro.core.ruletable.pack_side_masks` pass.  Contiguous
        inputs are adopted as-is (``ascontiguousarray`` never copies a
        C-contiguous array, read-only or not).
        """
        self = object.__new__(cls)
        self.ant_masks = np.ascontiguousarray(ant_masks, dtype=np.uint64)
        self.cons_masks = np.ascontiguousarray(cons_masks, dtype=np.uint64)
        self.ant_sizes = np.ascontiguousarray(ant_sizes, dtype=np.int32)
        self.cons_sizes = np.ascontiguousarray(cons_sizes, dtype=np.int32)
        self.n_rules = int(self.ant_masks.shape[0])
        self.n_words = int(self.ant_masks.shape[1])
        self._has_ant = self.ant_sizes > 0
        return self

    def _rule_block(self, n_jobs: int) -> int:
        """Rules per chunk keeping ``(n_jobs, block)`` temps bounded."""
        return max(1, _CHUNK_WORDS // max(1, n_jobs))

    # -- batch predicates ----------------------------------------------------
    def fired_mask(self, jobs: np.ndarray) -> np.ndarray:
        """``(n_jobs, n_rules)`` bool: antecedent ⊆ job, subset-tested.

        No popcount: a mask is a subset of a job row iff AND-ing with
        the row leaves it unchanged, word for word.  The loop runs over
        *words* (a handful for trace vocabularies) with 2-D outer
        broadcasts per word — an order of magnitude faster than one 3-D
        broadcast whose innermost axis is only ``n_words`` long.
        """
        n_jobs = jobs.shape[0]
        out = np.empty((n_jobs, self.n_rules), dtype=bool)
        block = self._rule_block(n_jobs)
        for lo in range(0, self.n_rules, block):
            hi = min(lo + block, self.n_rules)
            acc: np.ndarray | None = None
            for w in range(self.n_words):
                ant_w = self.ant_masks[lo:hi, w]
                fired_w = (jobs[:, w, None] & ant_w[None, :]) == ant_w[None, :]
                acc = fired_w if acc is None else acc.__iand__(fired_w)
            acc &= self._has_ant[None, lo:hi]
            out[:, lo:hi] = acc
        return out

    def hit_counts(self, jobs: np.ndarray) -> np.ndarray:
        """``(n_jobs, n_rules)`` int32: popcount(job & antecedent).

        The near-miss path needs the exact overlap, so this is the LUT
        popcount over the AND — the same 16-bit gather the mining kernel
        counts supports with, word by word.
        """
        n_jobs = jobs.shape[0]
        out = np.zeros((n_jobs, self.n_rules), dtype=np.int32)
        block = self._rule_block(n_jobs)
        for lo in range(0, self.n_rules, block):
            hi = min(lo + block, self.n_rules)
            for w in range(self.n_words):
                ant_w = self.ant_masks[lo:hi, w]
                and_w = jobs[:, w, None] & ant_w[None, :]
                halves = and_w.view(np.uint16).reshape(n_jobs, hi - lo, 4)
                out[:, lo:hi] += _POPCOUNT16[halves].sum(
                    axis=2, dtype=np.int32
                )
        return out

    def near_mask(self, jobs: np.ndarray) -> np.ndarray:
        """``(n_jobs, n_rules)`` bool: exactly one antecedent item short.

        Single-item antecedents are excluded by definition: a job that
        shares nothing with a rule gives no partial evidence to hint from.
        """
        hits = self.hit_counts(jobs)
        return (hits == self.ant_sizes[None, :] - 1) & (
            self.ant_sizes[None, :] >= 2
        )

    # -- per-pair resolutions ------------------------------------------------
    def cons_observed(
        self, jobs: np.ndarray, job_idx: np.ndarray, rule_idx: np.ndarray
    ) -> np.ndarray:
        """Subset test of the consequent at the given (job, rule) pairs."""
        if len(job_idx) == 0:
            return np.zeros(0, dtype=bool)
        cons = self.cons_masks[rule_idx]
        return ((jobs[job_idx] & cons) == cons).all(axis=1)

    def missing_ids(
        self, jobs: np.ndarray, job_idx: np.ndarray, rule_idx: np.ndarray
    ) -> np.ndarray:
        """Item id of the single missing antecedent bit per near pair.

        Valid only for pairs from :meth:`near_mask`, where
        ``ant & ~job`` has exactly one set bit across all words.
        """
        if len(job_idx) == 0:
            return np.zeros(0, dtype=np.int64)
        miss = self.ant_masks[rule_idx] & ~jobs[job_idx]
        word = np.argmax(miss != 0, axis=1)
        bits = miss[np.arange(len(rule_idx)), word]
        # exactly one bit set → the float64 conversion is an exact power
        # of two and log2 recovers the bit index without a scan
        bit = np.round(np.log2(bits.astype(np.float64))).astype(np.int64)
        return word.astype(np.int64) * _WORD_BITS + bit

    def nbytes(self) -> int:
        return int(self.ant_masks.nbytes + self.cons_masks.nbytes)

    def __repr__(self) -> str:
        return (
            f"BatchMaskKernel(n_rules={self.n_rules}, "
            f"n_words={self.n_words})"
        )
