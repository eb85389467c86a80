"""Rule index: compile a rule book once, answer whole micro-batches of jobs.

The serving hot path answers "which rules fire on this job?" and, for
``explain`` requests, "which rules are one item short of firing?".  A
:class:`RuleIndex` compiles the columnar
:class:`~repro.core.ruletable.RuleTable` (the RuleBook's canonical rule
storage) once per build — i.e. once per hot-swap — into three parts:

* a memoised canonicaliser from accepted item spellings (the canonical
  key, the rendered form, and learned alternates) to the book's item
  ids, so the wire form of a transaction (a list of strings) is encoded
  without constructing :class:`Item` objects per request;
* a :class:`~repro.serve.batchmatch.BatchMaskKernel` — packed uint64
  antecedent/consequent masks over the item id-space — that resolves a
  whole micro-batch in a few NumPy subset/popcount passes;
* one flat table of pre-encoded answer fragments,
  ``frags[2*rule_id + consequent_observed]``: each rule's ``fired``
  entry exactly as ``json.dumps`` renders it, as bytes.

:meth:`RuleIndex.wire_batch` is the service's one answer path: it turns
a batch's fired (job, rule) pairs into each job's ``fired`` body by
joining fragments — no per-request serialisation of rule content, no
rule objects — and, for ``explain`` jobs, a near-miss body from per-rule
prefixes built on the first ``explain``.  A near-miss is a rule exactly
one antecedent item short of firing, an operator hint ("had this job
also been multi-GPU, the failure rule would fire").

:meth:`match`, :meth:`match_wire`, :meth:`explain` and their batch forms
are thin wrappers over the same kernel passes that return presentation
objects (:class:`Match`, :class:`NearMiss`); a single job is a batch of
one.  Fired rules come back in rule-id order, which is the canonical
(lift, confidence, support) ranking, so no query ever sorts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..core.items import Item
from ..core.ruletable import RuleTable, csr_range_gather
from .batchmatch import BatchMaskKernel, encode_id_transactions
from .rulebook import RuleBook, json_floats

if TYPE_CHECKING:  # pragma: no cover - presentation objects only
    from ..core.rules import AssociationRule

__all__ = ["Match", "NearMiss", "RuleIndex"]

#: bound on memoised unseen transaction-item spellings — real
#: vocabularies are a few hundred items, so growth past this means
#: adversarial or malformed traffic.  The cache *evicts* (FIFO) at the
#: bound rather than shutting off, so steady-state traffic keeps its
#: hits even after an adversarial burst has filled it.
_CANON_CACHE_MAX = 100_000

#: sentinel distinguishing "never seen" from "seen, maps to nothing"
_UNSEEN = object()


@dataclass(frozen=True, slots=True)
class Match:
    """One fired rule: the job's items cover the whole antecedent."""

    rule: AssociationRule
    rule_id: int  # position in the index's rule order (lift-ranked)
    consequent_observed: bool  # did the job already exhibit the consequent?
    _frag: bytes = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        """Wire form used by the service protocol."""
        return json.loads(self._frag)


@dataclass(frozen=True, slots=True)
class NearMiss:
    """A rule one antecedent item short of firing, with the missing item."""

    rule: AssociationRule
    rule_id: int
    missing: Item

    def as_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "antecedent": sorted(i.render() for i in self.rule.antecedent),
            "consequent": sorted(i.render() for i in self.rule.consequent),
            "lift": self.rule.lift,
            "missing": self.missing.render(),
        }


#: one rule's ``fired`` entry without its ``consequent_observed`` flag
#: and closing brace: byte for byte ``json.dumps`` of the entry's dict
_FIRED_HEAD = (
    '{"rule_id": %d, "antecedent": %s, "consequent": %s, "support": %s, '
    '"confidence": %s, "lift": %s, "consequent_observed": '
)

#: one rule's near-miss entry up to its ``missing`` item's text
_NEAR_HEAD = '{"rule_id": %d, "antecedent": %s, "consequent": %s, "lift": %s, "missing": '

#: what ``json.dumps`` writes for the floats ``float.__repr__`` does not
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _ranks(keys: list) -> np.ndarray:
    """``rank[i]``: position of ``keys[i]`` in ``sorted(keys)``."""
    rank = np.empty(len(keys), dtype=np.int64)
    rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return rank


def _joined_rows(
    indptr: np.ndarray, ids: np.ndarray, rank: np.ndarray, texts: list[str]
) -> list[str]:
    """Per CSR row, its items' *texts* ordered by ``rank[id]``, joined by
    ``", "``."""
    rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    flat = list(map(texts.__getitem__, ids[np.lexsort((rank[ids], rows))].tolist()))
    bounds = indptr.tolist()
    return [", ".join(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _json_sides(table: RuleTable, renders: list[str]) -> tuple[list[str], list[str]]:
    """Per rule, its antecedent and consequent as JSON lists of renders,
    each sorted — what ``json.dumps(sorted(renders))`` writes."""
    rank = _ranks(renders)
    quoted = list(map(json.dumps, renders))  # per item, not per rule
    ant = _joined_rows(table.ant_indptr, table.ant_ids, rank, quoted)
    cons = _joined_rows(table.cons_indptr, table.cons_ids, rank, quoted)
    return ["[" + row + "]" for row in ant], ["[" + row + "]" for row in cons]


def _encode_fragments(table: RuleTable, renders: list[str]) -> list[bytes]:
    """``frags[2*r + c]``: rule *r*'s ``fired`` entry with flag *c*.

    Byte-identical to ``json.dumps`` of the entry's dict, formatted from
    the table's columns: one ``json.dumps`` per item, none per rule.
    """
    heads = map(
        _FIRED_HEAD.__mod__,
        zip(
            range(len(table)),
            *_json_sides(table, renders),
            json_floats(table.support, _JSON_NON_FINITE),
            json_floats(table.confidence, _JSON_NON_FINITE),
            json_floats(table.lift, _JSON_NON_FINITE),
        ),
    )
    frags: list[bytes] = []
    for head in heads:
        head = head.encode()
        frags.append(head + b"false}")
        frags.append(head + b"true}")
    return frags


class RuleIndex:
    """Immutable compiled rule set, answering micro-batches of jobs.

    Rules are stored lift-ranked (the RuleBook / RuleTable canonical
    order), so fired rules come out of the kernel already ranked by
    (lift, confidence, support) descending.
    """

    __slots__ = (
        "_table",
        "_rules",
        "_canon",
        "_canon_extra",
        "_items_by_id",
        "_frags",
        "_near_heads",
        "_missing_tails",
        "_kernel",
        "shm_segment",
    )

    def __init__(self, table: RuleTable):
        self._init_compiled(table.sort_canonical(), kernel=None, frags=None)

    def _init_compiled(
        self,
        table: RuleTable,
        *,
        kernel: BatchMaskKernel | None,
        frags: list[bytes] | None,
    ) -> None:
        """Set up the canonicaliser, fragment table and kernel.

        The table is trusted to already be in canonical order — every
        caller guarantees it (:meth:`__init__` sorts, a RuleBook's table
        is canonical, the shm attach path maps a table that was published
        from a sorted index).
        """
        self._table = table
        self._rules: tuple[AssociationRule, ...] | None = None
        #: shared-memory attachment backing this index's arrays (attach
        #: path only); riding here keeps the mapping alive with the views
        self.shm_segment = None

        items_by_id = list(table.vocabulary)
        #: built-in accepted spelling → item id (vocabulary items)
        canon: dict[str, int] = {}
        for item_id, item in enumerate(items_by_id):
            canon[str(item)] = item_id
            canon[item.render()] = item_id
        self._canon = canon
        #: learned spelling → item id or None; bounded, FIFO-evicted
        self._canon_extra: dict[str, int | None] = {}
        self._items_by_id = items_by_id
        if frags is None:
            frags = _encode_fragments(table, [i.render() for i in items_by_id])
        # an object array, so a batch gathers its fragments in one take
        self._frags = np.empty(len(frags), dtype=object)
        self._frags[:] = frags
        # near-miss prefixes are built on the first explain only
        self._near_heads: list[bytes] | None = None
        self._missing_tails: list[bytes] | None = None
        # compiled once per index build — i.e. once per hot-swap, since a
        # reload always carries a fresh RuleIndex through the flip marker
        self._kernel = kernel if kernel is not None else BatchMaskKernel(table)

    @classmethod
    def from_rulebook(cls, book: RuleBook) -> "RuleIndex":
        # a book's table is in canonical order by construction
        return cls.from_compiled(book.table)

    @classmethod
    def from_compiled(
        cls,
        table: RuleTable,
        *,
        kernel: BatchMaskKernel | None = None,
        frags: list[bytes] | None = None,
    ) -> "RuleIndex":
        """Adopt a table already in canonical order without sorting it.

        The shm attach path passes the packed-bitmask *kernel* and the
        fragment table too, straight out of a published segment, so
        construction is O(vocabulary) — no canonical sort, no mask
        packing, no JSON encoding; a book's table compiles both here.
        """
        self = object.__new__(cls)
        self._init_compiled(table, kernel=kernel, frags=frags)
        return self

    @property
    def table(self) -> RuleTable:
        """The canonical columnar rule storage backing this index."""
        return self._table

    @property
    def rules(self) -> tuple[AssociationRule, ...]:
        """Rule-object views in index order, materialised on first access."""
        if self._rules is None:
            self._rules = tuple(self._table.to_rules())
        return self._rules

    @property
    def kernel(self) -> BatchMaskKernel:
        """The compiled packed-bitmask kernel backing every answer."""
        return self._kernel

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return (
            f"RuleIndex(n_rules={len(self)}, "
            f"n_words={self._kernel.n_words})"
        )

    @property
    def n_postings(self) -> int:
        """Total (item, rule) antecedent pairs — the book's match-side size."""
        return int(self._table.ant_ids.size)

    @property
    def canon_cache_len(self) -> int:
        """Learned (non-vocabulary) spellings currently memoised."""
        return len(self._canon_extra)

    # -- encoding ----------------------------------------------------------------
    def _item_ids(self, transaction: Iterable[Item | str]) -> list[int]:
        """Transaction → item ids (unknown items drop, duplicates may stay).

        First sight of an unseen spelling parses it once and memoises
        the outcome in a *bounded* side cache, so steady-state traffic
        never constructs :class:`Item` objects.  At capacity the oldest
        learned spelling is evicted (dict insertion order = FIFO) — the
        cache keeps memoising under adversarial vocabulary churn instead
        of silently re-parsing every unseen spelling forever.
        """
        canon = self._canon
        extra = self._canon_extra
        ids: list[int] = []
        for element in transaction:
            text = element if isinstance(element, str) else str(element)
            item_id = canon.get(text)
            if item_id is None:
                item_id = extra.get(text, _UNSEEN)
                if item_id is _UNSEEN:
                    item_id = canon.get(str(Item.parse(text)))
                    if len(extra) >= _CANON_CACHE_MAX:
                        extra.pop(next(iter(extra)))
                    extra[text] = item_id
            if item_id is not None:
                ids.append(item_id)
        return ids

    def encode_batch(
        self, transactions: Iterable[Iterable[Item | str]]
    ) -> np.ndarray:
        """Encode jobs into a ``(n_jobs, n_words)`` uint64 bit-matrix.

        Each job goes through the memoised canonicaliser (so unknown
        items drop), then its item ids are packed with the rule masks'
        bit layout (so duplicates collapse).
        """
        return encode_id_transactions(
            [self._item_ids(t) for t in transactions], self._kernel.n_words
        )

    # -- kernel passes -----------------------------------------------------------
    def _fired_pairs(
        self, jobs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(job_idx, rule_idx, consequent_observed) over one encoded batch."""
        job_idx, rule_idx = _pairs(self._kernel.fired_mask(jobs))
        cons_ok = self._kernel.cons_observed(jobs, job_idx, rule_idx)
        return job_idx, rule_idx, cons_ok

    def _near_pairs(
        self, jobs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(job_idx, rule_idx, missing item id) of every near-miss.

        The missing item is read straight out of ``ant & ~job`` — for a
        near-miss pair that difference has exactly one set bit.
        """
        job_idx, rule_idx = _pairs(self._kernel.near_mask(jobs))
        missing = self._kernel.missing_ids(jobs, job_idx, rule_idx)
        return job_idx, rule_idx, missing

    # -- the answer path ---------------------------------------------------------
    def wire_batch(
        self, transactions: list, explain: list[bool]
    ) -> tuple[np.ndarray, Iterator[tuple[list[bytes], list[bytes] | None]]]:
        """One micro-batch → per-rule fire counts and lazy answer parts.

        Returns ``(fires, parts)``: ``fires[r]`` counts the jobs rule
        *r* fired on, and ``parts`` yields, per job in order, its
        ``fired`` entries (pre-encoded fragments, ranked) and — where
        ``explain[j]`` is set — its ``near_misses`` entries, else None.
        The entries are the index's own fragment objects, so a job's
        parts cost one reference each until the caller joins them.
        """
        jobs = self.encode_batch(transactions)
        job_idx, rule_idx, cons_ok = self._fired_pairs(jobs)
        fires = np.bincount(rule_idx, minlength=len(self._table))
        explained = [j for j, flag in enumerate(explain) if flag]
        near = self._near_pairs(jobs[explained]) if explained else None
        fired = self._frags[rule_idx * 2 + cons_ok]
        return fires, self._parts(
            _job_bounds(job_idx, len(transactions)), fired, explained, near
        )

    def _parts(
        self,
        bounds: list[int],
        fired: np.ndarray,
        explained: list[int],
        near: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> Iterator[tuple[list[bytes], list[bytes] | None]]:
        near_row = {j: k for k, j in enumerate(explained)}
        if near is not None:
            heads, tails = self._near_prefixes()
            near_bounds = _job_bounds(near[0], len(explained))
            near_rules, near_items = near[1].tolist(), near[2].tolist()
        for j in range(len(bounds) - 1):
            entries = fired[bounds[j] : bounds[j + 1]].tolist()
            k = near_row.get(j)
            if k is None:
                yield entries, None
                continue
            lo, hi = near_bounds[k], near_bounds[k + 1]
            yield entries, [
                heads[r] + tails[m]
                for r, m in zip(near_rules[lo:hi], near_items[lo:hi])
            ]

    def _near_prefixes(self) -> tuple[list[bytes], list[bytes]]:
        """Per-rule ``{..., "missing": `` prefixes and per-item tails.

        A near-miss entry is ``heads[rule_id] + tails[missing_id]``,
        byte-identical to ``json.dumps(NearMiss.as_dict())``.  Built on
        the first explain: most books never serve one.
        """
        if self._near_heads is None:
            renders = [item.render() for item in self._items_by_id]
            self._near_heads = [
                head.encode()
                for head in map(
                    _NEAR_HEAD.__mod__,
                    zip(
                        range(len(self._table)),
                        *_json_sides(self._table, renders),
                        json_floats(self._table.lift, _JSON_NON_FINITE),
                    ),
                )
            ]
            self._missing_tails = [
                (json.dumps(text) + "}").encode() for text in renders
            ]
        return self._near_heads, self._missing_tails

    # -- presentation wrappers ---------------------------------------------------
    def match_wire_batch(
        self, transactions: list
    ) -> list[list[tuple[int, bytes]]]:
        """Per job, ``[(rule_id, encoded fragment), ...]`` in ranked order.

        Fragments are the index's pre-encoded ``fired`` entries (ASCII
        JSON bytes) — the exact bytes the service joins into answers.
        """
        out: list[list[tuple[int, bytes]]] = [[] for _ in transactions]
        if not out:
            return out
        job_idx, rule_idx, cons_ok = self._fired_pairs(
            self.encode_batch(transactions)
        )
        frags = self._frags[rule_idx * 2 + cons_ok].tolist()
        for j, r, frag in zip(job_idx.tolist(), rule_idx.tolist(), frags):
            out[j].append((r, frag))
        return out

    def match_batch(self, transactions: list) -> list[list[Match]]:
        """Per job, ranked :class:`Match` lists."""
        out: list[list[Match]] = [[] for _ in transactions]
        if not out:
            return out
        job_idx, rule_idx, cons_ok = self._fired_pairs(
            self.encode_batch(transactions)
        )
        rules = self.rules
        frags = self._frags[rule_idx * 2 + cons_ok].tolist()
        for j, r, c, frag in zip(
            job_idx.tolist(), rule_idx.tolist(), cons_ok.tolist(), frags
        ):
            out[j].append(
                Match(
                    rule=rules[r], rule_id=r, consequent_observed=c, _frag=frag
                )
            )
        return out

    def explain_batch(self, transactions: list) -> list[list[NearMiss]]:
        """Per job, the rules exactly one antecedent item short of firing.

        Each entry names the single missing item.  Single-item
        antecedents never appear (they either fire or share nothing with
        the job, so there is no partial evidence to hint from).
        """
        out: list[list[NearMiss]] = [[] for _ in transactions]
        if not out:
            return out
        job_idx, rule_idx, missing = self._near_pairs(
            self.encode_batch(transactions)
        )
        rules = self.rules
        items_by_id = self._items_by_id
        for j, r, m in zip(
            job_idx.tolist(), rule_idx.tolist(), missing.tolist()
        ):
            out[j].append(
                NearMiss(rule=rules[r], rule_id=r, missing=items_by_id[m])
            )
        return out

    def match(self, transaction: Iterable[Item | str]) -> list[Match]:
        """Rules whose antecedent is fully contained in *transaction*.

        Returned ranked by (lift, confidence, support) descending.  Items
        unknown to the index are ignored — an online job may carry
        features the mined vocabulary never saw.
        """
        return self.match_batch([transaction])[0]

    def match_wire(
        self, transaction: Iterable[Item | str]
    ) -> list[tuple[int, bytes]]:
        """Like :meth:`match`, but as ``(rule_id, encoded fragment)`` pairs."""
        return self.match_wire_batch([transaction])[0]

    def explain(self, transaction: Iterable[Item | str]) -> list[NearMiss]:
        """Rules exactly one antecedent item short of firing on the job."""
        return self.explain_batch([transaction])[0]

    def rule_labels(self, rule_ids: "np.ndarray | Sequence[int]") -> list[str]:
        """``{ant} => {cons}`` labels of the given rules (items in
        :class:`Item` order), rendered from the table's columns — the
        stable keys of the ``metrics`` answer's ``rule_matches``."""
        rows = np.asarray(rule_ids, dtype=np.int64)
        renders = [item.render() for item in self._items_by_id]
        rank = _ranks([(item.feature, item.value) for item in self._items_by_id])

        def side(indptr: np.ndarray, ids: np.ndarray) -> list[str]:
            indptr, flat = csr_range_gather(indptr, rows)
            return _joined_rows(indptr, ids[flat], rank, renders)

        ant = side(self._table.ant_indptr, self._table.ant_ids)
        cons = side(self._table.cons_indptr, self._table.cons_ids)
        return [f"{{{a}}} => {{{c}}}" for a, c in zip(ant, cons)]

    def rule_label(self, rule_id: int) -> str:
        return self.rule_labels([rule_id])[0]

def _pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(job_idx, rule_idx) of a ``(n_jobs, n_rules)`` mask's set cells.

    Row-major order: job by job, rule ids ascending within each job —
    the canonical lift ranking.  A flat ``nonzero`` plus one division is
    several times cheaper than a 2-D ``np.nonzero``.
    """
    flat = np.flatnonzero(mask)
    job_idx = flat // max(1, mask.shape[1])
    return job_idx, flat - job_idx * mask.shape[1]


def _job_bounds(job_idx: np.ndarray, n_jobs: int) -> list[int]:
    """Pair offsets per job: job *j* owns pairs ``[b[j], b[j + 1])``."""
    return np.searchsorted(job_idx, np.arange(n_jobs + 1)).tolist()
