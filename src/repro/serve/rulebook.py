"""Versioned persistence for mined rules: the RuleBook.

Offline mining produces rules; online serving needs them to outlive the
mining process.  A :class:`RuleBook` is the hand-off artefact: the pruned
rule set plus the provenance an operator needs to trust it — which trace
and keywords it was mined from, the full :class:`MiningConfig`, the
content fingerprint of the transaction database, and the engine backend
that produced it.

Internally a book stores its rules as a columnar
:class:`~repro.core.ruletable.RuleTable` (the canonical rule form):
persistence streams straight from the table's CSR id rows and metric
columns, and :class:`~repro.serve.RuleIndex` builds its postings from the
same arrays.  A book is built from a table only; ``book.rules``
materialises :class:`~repro.core.rules.AssociationRule` views lazily for
presentation.

The on-disk format is JSON-lines with a mandatory header record::

    {"record": "header", "schema_version": 2, "items": [...], ...}
    {"record": "rule", "antecedent_ids": [...], "support": ..., ...}
    ...

One line per record keeps the format streamable and diffable; the header
carries the item vocabulary (id → [feature, value]) so rule lines stay
compact and id-exact.  Loading refuses any file whose ``schema_version``
differs from :data:`SCHEMA_VERSION` — a serving process must never guess
at rule semantics.  Non-finite floats (an exact implication has
conviction ∞) are encoded as the strings ``"inf"`` / ``"-inf"`` /
``"nan"`` so every line is strict JSON.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..core.config import MiningConfig
from ..core.items import Item, ItemVocabulary
from ..core.ruletable import RuleTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.workflow import AnalysisResult
    from ..core.rules import AssociationRule

__all__ = ["SCHEMA_VERSION", "RuleBookSchemaError", "RuleBook"]

#: current on-disk schema; bump on any incompatible format change
SCHEMA_VERSION = 2

#: float fields of a rule record, in serialisation order
_METRIC_FIELDS = ("support", "confidence", "lift", "leverage", "conviction")


class RuleBookSchemaError(ValueError):
    """The file is not a RuleBook this code understands."""


#: one rule line, keys in ``sort_keys`` order: byte for byte what
#: ``json.dumps(record, sort_keys=True)`` writes for a rule record
_RULE_LINE = (
    '{"antecedent_ids": %s, "confidence": %s, "consequent_ids": %s, '
    '"conviction": %s, "leverage": %s, "lift": %s, "record": "rule", '
    '"support": %s}\n'
)

#: the strict-JSON spellings of the non-finite floats
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}

#: every key of a rule record, in ``_RULE_LINE`` order
_RULE_KEYS = (
    "antecedent_ids", "confidence", "consequent_ids", "conviction",
    "leverage", "lift", "record", "support",
)

#: decoded rule columns: (ant_indptr, ant_ids, cons_indptr, cons_ids,
#: metric columns in ``_METRIC_FIELDS`` order)
_Columns = tuple[object, object, object, object, list]


#: rule lines quote a non-finite float's repr into one of ``_NON_FINITE``
_QUOTED_NON_FINITE = {text: f'"{text}"' for text in _NON_FINITE}


def json_floats(column: np.ndarray, non_finite: dict[str, str]) -> list[str]:
    """JSON text of each float of *column*: its ``float.__repr__``, as
    ``json`` writes a finite float, with a non-finite repr (``inf``,
    ``-inf``, ``nan``) spelled as *non_finite* maps it.

    Each distinct value is rendered once and its text gathered back.
    Values are told apart by bit pattern, so ``-0.0`` keeps its sign
    and no two NaNs are merged by a float compare.
    """
    column = np.ascontiguousarray(column, dtype=np.float64)
    _, first, inverse = np.unique(
        column.view(np.uint64), return_index=True, return_inverse=True
    )
    texts = [non_finite.get(t, t) for t in map(float.__repr__, column[first].tolist())]
    return list(map(texts.__getitem__, inverse.tolist()))


def _json_id_lists(indptr: np.ndarray, ids: np.ndarray) -> list[str]:
    """JSON text of each CSR row as a list of ints (``[1, 2]``)."""
    flat = ids.tolist()
    bounds = indptr.tolist()
    return [repr(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _dec_float(name: str, value: object) -> float:
    """A metric: a JSON number (not a bool) or one of ``_NON_FINITE``."""
    kind = type(value)
    if kind is float or kind is int:
        return float(value)
    if kind is str and value in _NON_FINITE:
        return _NON_FINITE[value]
    raise ValueError(
        f"{name} must be a number or one of \"inf\", \"-inf\", \"nan\", "
        f"got {value!r}"
    )


def _dec_side(name: str, value: object, n_items: int) -> list[int]:
    """A rule side: a JSON list of int ids (no bools) inside the item table."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list of item ids, got {value!r}")
    for i in value:
        if type(i) is not int:
            raise ValueError(f"{name} must hold int item ids, got {i!r}")
        if not 0 <= i < n_items:
            raise ValueError(f"item id {i} outside the header item table")
    # set-dedup tolerates repeated ids within a side, exactly like the
    # frozenset decoding of earlier versions
    return sorted(set(value))


class RuleBook:
    """A persisted, provenance-stamped set of association rules.

    Rules are ordered by (lift, confidence, support) descending — the
    ranking the paper's tables use and the order the serving index
    preserves.  The *table* defaults to no rules, and every provenance
    field is optional, so a book can also wrap a hand-built table
    (tests, benchmarks).

    On construction the table is re-keyed into the book's own dense
    id-space (items sorted, id = rank): a rule's identity must not depend
    on the insertion order of the mining vocabulary it came from, or two
    books over identical rules would differ on disk.  Canonicalisation is
    idempotent, which is exactly what makes save → load bit-exact.
    """

    __slots__ = (
        "trace",
        "keywords",
        "config",
        "fingerprint",
        "backend",
        "n_transactions",
        "stream",
        "schema_version",
        "_table",
        "_rules",
    )

    def __init__(
        self,
        table: RuleTable | None = None,
        trace: str | None = None,
        keywords: dict[str, str] | None = None,
        config: MiningConfig | None = None,
        fingerprint: str | None = None,
        backend: str | None = None,
        n_transactions: int | None = None,
        schema_version: int = SCHEMA_VERSION,
        *,
        stream: dict | None = None,
    ):
        self.trace = trace
        self.keywords = dict(keywords) if keywords else {}
        self.config = config
        self.fingerprint = fingerprint
        self.backend = backend
        self.n_transactions = n_transactions
        # stream provenance (follow mode): window bounds, n_seen, trigger
        # reason — None for batch-mined books, absent from their headers
        self.stream = dict(stream) if stream else None
        self.schema_version = schema_version
        self._table = _canonical_from_table(
            RuleTable.empty() if table is None else table
        )
        self._rules: tuple[AssociationRule, ...] | None = None

    # -- rule access -----------------------------------------------------------
    @property
    def table(self) -> RuleTable:
        """The canonical columnar rule storage (dense sorted id-space)."""
        return self._table

    @property
    def rules(self) -> tuple[AssociationRule, ...]:
        """Rule-object views of the table, materialised on first access."""
        if self._rules is None:
            self._rules = tuple(self._table.to_rules())
        return self._rules

    @property
    def _items(self) -> tuple[Item, ...]:
        """The canonical id-space (position = id)."""
        return tuple(self._table.vocabulary)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[AssociationRule]:
        return iter(self.rules)

    def __repr__(self) -> str:
        return (
            f"RuleBook(n_rules={len(self)}, trace={self.trace!r}, "
            f"keywords={sorted(self.keywords)})"
        )

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_analysis(
        cls, result: "AnalysisResult", trace: str | None = None
    ) -> "RuleBook":
        """Collect every kept rule of an analysis run into a RuleBook.

        The book's rules are the result's
        :attr:`~repro.analysis.workflow.AnalysisResult.rule_table`: the
        kept rules of all keyword studies, a rule surviving several
        studies once.  Provenance (config, database fingerprint, backend)
        is lifted off the result.
        """
        return cls(
            result.rule_table,
            trace=trace,
            keywords={
                name: ruleset.keyword.render()
                for name, ruleset in result.keyword_results.items()
            },
            config=result.config,
            fingerprint=result.preprocess.database.fingerprint(),
            backend=result.stats.backend if result.stats is not None else None,
            n_transactions=len(result.preprocess.database),
        )

    # -- persistence -----------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Write header + one rule record per line (strict JSON lines).

        The header's ``items`` list is the book's canonical id-space
        (position = id), so rule lines stay compact and a loaded rule
        compares equal to the saved one field for field, ids included.
        Every rule line is one format of the table's ``tolist()``'d
        columns — no rule object, record dict or ``json.dumps`` per rule —
        and is byte for byte what ``json.dumps(record, sort_keys=True)``
        would write.
        """
        table = self._table
        header = {
            "record": "header",
            "schema_version": self.schema_version,
            "n_rules": len(table),
            "items": [[item.feature, item.value] for item in self._items],
            "trace": self.trace,
            "keywords": self.keywords,
            "config": None if self.config is None else asdict(self.config),
            "fingerprint": self.fingerprint,
            "backend": self.backend,
            "n_transactions": self.n_transactions,
        }
        if self.stream is not None:
            header["stream"] = self.stream
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.writelines(map(_RULE_LINE.__mod__, zip(
                _json_id_lists(table.ant_indptr, table.ant_ids),
                json_floats(table.confidence, _QUOTED_NON_FINITE),
                _json_id_lists(table.cons_indptr, table.cons_ids),
                json_floats(table.conviction, _QUOTED_NON_FINITE),
                json_floats(table.leverage, _QUOTED_NON_FINITE),
                json_floats(table.lift, _QUOTED_NON_FINITE),
                json_floats(table.support, _QUOTED_NON_FINITE),
            )))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RuleBook":
        """Load a RuleBook, validating schema version and record shape.

        Rule sides must be JSON lists of int ids (bools, floats and strings
        are refused, never coerced); metrics must be JSON numbers or the
        strings ``"inf"``/``"-inf"``/``"nan"``.  Anything else raises
        :class:`RuleBookSchemaError` naming ``path:lineno``.  All rule
        lines are parsed by one ``json.loads`` and validated column by
        column; a line-by-line pass runs only when that refuses
        something, to name the first bad line.  The constructor
        re-canonicalises, so a hand-edited file (unsorted ids, unused
        header items) still loads into the same book its pristine twin
        would.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        if not lines:
            raise RuleBookSchemaError(f"{path}: empty file, expected a header record")
        header = _parse_json(lines[0], path, 1)
        if header.get("record") != "header":
            raise RuleBookSchemaError(
                f"{path}: first record must be the header, got "
                f"{header.get('record')!r}"
            )
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            raise RuleBookSchemaError(
                f"{path}: schema_version {version!r} is not supported "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        try:
            items = [Item(feature, value) for feature, value in header["items"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise RuleBookSchemaError(f"{path}: bad item table: {exc}") from None
        config = header.get("config")
        if config is not None:
            if not isinstance(config, dict):
                raise RuleBookSchemaError(
                    f"{path}: header config must be an object, got {config!r}"
                )
            try:
                config = MiningConfig(**config)
            except (TypeError, ValueError) as exc:
                raise RuleBookSchemaError(f"{path}: bad header config: {exc}") from None

        body = lines[1:]
        columns = _decode_rules(body, len(items))
        if columns is None:
            # the one-pass decode refused something: decode line by line,
            # which names the first bad record (or accepts what the fast
            # path does not handle, such as extra keys or unsorted ids)
            columns = _decode_rule_lines(body, len(items), path)
        ant_indptr, ant_ids, cons_indptr, cons_ids, metrics = columns
        n_rules = len(ant_indptr) - 1
        if n_rules != header.get("n_rules", n_rules):
            raise RuleBookSchemaError(
                f"{path}: header promises {header['n_rules']} rules, "
                f"found {n_rules} — truncated file?"
            )
        table = RuleTable(
            ItemVocabulary(items), ant_indptr, ant_ids, cons_indptr, cons_ids,
            *metrics,
        )
        return cls(
            table=table,
            trace=header.get("trace"),
            keywords=dict(header.get("keywords") or {}),
            config=config,
            fingerprint=header.get("fingerprint"),
            backend=header.get("backend"),
            n_transactions=header.get("n_transactions"),
            stream=header.get("stream"),
        )

    # -- derived views ---------------------------------------------------------
    def vocabulary(self) -> ItemVocabulary:
        """The canonical id-space as a vocabulary (id = insertion order)."""
        return ItemVocabulary(self._items)

    def provenance(self) -> str:
        """One-line provenance summary for CLI output and logs."""
        parts = [f"{len(self)} rules"]
        if self.trace:
            parts.append(f"trace={self.trace}")
        if self.keywords:
            parts.append("keywords=" + ",".join(sorted(self.keywords.values())))
        if self.n_transactions is not None:
            parts.append(f"mined_from={self.n_transactions} jobs")
        if self.fingerprint:
            parts.append(f"db={self.fingerprint[:12]}")
        if self.backend:
            parts.append(f"backend={self.backend}")
        if self.stream:
            window = self.stream.get("window")
            span = f"[{window[0]},{window[1]})" if window else "?"
            parts.append(
                f"stream={span} of {self.stream.get('n_seen', '?')} seen, "
                f"trigger={self.stream.get('trigger', '?')}"
            )
        return ", ".join(parts)


def _decode_rules(lines: list[str], n_items: int) -> _Columns | None:
    """Every rule line in one ``json.loads``, validated in column passes.

    Returns ``None`` when anything is off — a bad line, an extra key, a
    side that is not strictly ascending — and :func:`_decode_rule_lines`
    then decides line by line.  Each line is parsed as the one element of
    its own array (``[[line],[line],...]``): a record holds no nested
    array, so a ``],[`` separator can only end an element of the outer
    array, and one single-record element per line proves that every line
    is a JSON object on its own, exactly as the per-line parse requires.
    """
    if not lines:
        return [0], [], [0], [], [[] for _ in _METRIC_FIELDS]
    try:
        wrapped = json.loads("[[" + "],[".join(lines) + "]]")
    except (json.JSONDecodeError, RecursionError):
        return None
    if len(wrapped) != len(lines) or set(map(type, wrapped)) != {list}:
        return None
    if set(map(len, wrapped)) != {1}:
        return None
    records = list(map(itemgetter(0), wrapped))
    if set(map(type, records)) != {dict} or set(map(len, records)) != {len(_RULE_KEYS)}:
        return None
    try:
        columns = dict(zip(_RULE_KEYS, zip(*map(itemgetter(*_RULE_KEYS), records))))
        if set(columns["record"]) != {"rule"}:
            return None
    except (KeyError, TypeError):  # a missing key; an unhashable "record"
        return None
    ant = _side_column(columns["antecedent_ids"], n_items)
    cons = _side_column(columns["consequent_ids"], n_items)
    metrics = [_metric_column(columns[name]) for name in _METRIC_FIELDS]
    if ant is None or cons is None or any(m is None for m in metrics):
        return None
    rows = np.arange(len(lines), dtype=np.int64)
    keys = np.concatenate([
        np.repeat(rows, np.diff(ant[0])) * n_items + ant[1],
        np.repeat(rows, np.diff(cons[0])) * n_items + cons[1],
    ])
    keys.sort()
    if (keys[1:] == keys[:-1]).any():  # an item on both sides of a rule
        return None
    return (*ant, *cons, metrics)


def _side_column(
    values: tuple, n_items: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """One rule side of every record as CSR ``(indptr, ids)``, or ``None``
    unless every side is a non-empty, strictly ascending list of int ids
    inside the item table."""
    if set(map(type, values)) != {list}:
        return None
    sizes = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    flat = list(chain.from_iterable(values))
    if not sizes.all() or set(map(type, flat)) != {int}:
        return None
    try:
        ids = np.array(flat, dtype=np.int64)
    except OverflowError:
        return None
    if ids.min() < 0 or ids.max() >= n_items:
        return None
    indptr = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    ascending = np.diff(ids) > 0
    ascending[indptr[1:-1] - 1] = True  # row boundaries
    return (indptr, ids) if ascending.all() else None


def _metric_column(values: tuple) -> np.ndarray | None:
    """One metric of every record as floats, or ``None`` unless each is
    a JSON number (not a bool) or one of ``_NON_FINITE``."""
    kinds = set(map(type, values))
    if str in kinds:
        values = [_NON_FINITE.get(v, v) if type(v) is str else v for v in values]
        kinds = set(map(type, values))
    if not kinds <= {float, int}:
        return None
    try:
        return np.array(
            values if kinds == {float} else list(map(float, values)),
            dtype=np.float64,
        )
    except OverflowError:
        return None


def _decode_rule_lines(lines: list[str], n_items: int, path) -> _Columns:
    """Decode rule lines one at a time, raising
    :class:`RuleBookSchemaError` with ``path:lineno`` at the first bad one."""
    ant_indptr = [0]
    cons_indptr = [0]
    ant_ids: list[int] = []
    cons_ids: list[int] = []
    metrics: list[list[float]] = [[] for _ in _METRIC_FIELDS]
    for lineno, line in enumerate(lines, start=2):
        record = _parse_json(line, path, lineno)
        if record.get("record") != "rule":
            raise RuleBookSchemaError(
                f"{path}:{lineno}: expected a rule record, got "
                f"{record.get('record')!r}"
            )
        try:
            ant = _dec_side("antecedent_ids", record["antecedent_ids"], n_items)
            cons = _dec_side("consequent_ids", record["consequent_ids"], n_items)
            if not ant or not cons:
                raise ValueError("rule sides must be non-empty")
            if not set(ant).isdisjoint(cons):
                raise ValueError("antecedent and consequent must be disjoint")
            row = [_dec_float(name, record[name]) for name in _METRIC_FIELDS]
        except (KeyError, OverflowError, ValueError) as exc:
            raise RuleBookSchemaError(
                f"{path}:{lineno}: bad rule record: {exc}"
            ) from None
        ant_ids.extend(ant)
        cons_ids.extend(cons)
        ant_indptr.append(len(ant_ids))
        cons_indptr.append(len(cons_ids))
        for column, value in zip(metrics, row):
            column.append(value)
    return ant_indptr, ant_ids, cons_indptr, cons_ids, metrics


def _canonical_from_table(table: RuleTable) -> RuleTable:
    """Remap a table into its own dense sorted id-space and sort it.

    Only ids actually referenced by some rule survive into the book's
    vocabulary — mining vocabularies carry every item of the trace, most
    of which never reach a kept rule.
    """
    width = table.n_items
    used = np.zeros(width, dtype=bool)
    if table.ant_ids.size:
        used[table.ant_ids] = True
    if table.cons_ids.size:
        used[table.cons_ids] = True
    old_ids = np.flatnonzero(used)
    pairs = sorted((table.vocabulary.item_of(int(i)), int(i)) for i in old_ids)
    vocabulary = ItemVocabulary(item for item, _old in pairs)
    mapping = np.full(width, -1, dtype=np.int64)
    for new_id, (_item, old_id) in enumerate(pairs):
        mapping[old_id] = new_id
    return table.remap_ids(mapping, vocabulary).sort_canonical()


def _parse_json(line: str, path, lineno: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RuleBookSchemaError(f"{path}:{lineno}: not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise RuleBookSchemaError(f"{path}:{lineno}: record must be an object")
    return record
