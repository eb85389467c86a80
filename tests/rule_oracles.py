"""Slow, obviously-correct twins of the rule layer's array code.

* :func:`rule_keys` — one ``(antecedent ids, consequent ids)`` tuple per
  table row, for set-based comparisons.
* :func:`save_with_json_dumps` — the RuleBook writer that builds one
  record dict per rule and encodes it with ``json.dumps(record,
  sort_keys=True)``.  :meth:`RuleBook.save` formats lines straight from
  the table columns and must write the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

from repro.core.ruletable import METRIC_COLUMNS, RuleTable


def rule_keys(table: RuleTable) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(antecedent ids, consequent ids) tuple keys, one per row."""
    return [
        (tuple(int(x) for x in table.ant_row(i)),
         tuple(int(x) for x in table.cons_row(i)))
        for i in range(len(table))
    ]


def _enc_float(value: float) -> float | str:
    """Strict-JSON float: non-finite values become strings."""
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def save_with_json_dumps(book, path) -> None:
    """Write *book* one ``json.dumps`` record per line."""
    table = book.table
    header = {
        "record": "header",
        "schema_version": book.schema_version,
        "n_rules": len(table),
        "items": [[item.feature, item.value] for item in table.vocabulary],
        "trace": book.trace,
        "keywords": book.keywords,
        "config": None if book.config is None else asdict(book.config),
        "fingerprint": book.fingerprint,
        "backend": book.backend,
        "n_transactions": book.n_transactions,
    }
    if book.stream is not None:
        header["stream"] = book.stream
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i in range(len(table)):
            record: dict = {
                "record": "rule",
                "antecedent_ids": [int(x) for x in table.ant_row(i)],
                "consequent_ids": [int(x) for x in table.cons_row(i)],
            }
            for name in METRIC_COLUMNS:
                record[name] = _enc_float(float(getattr(table, name)[i]))
            fh.write(json.dumps(record, sort_keys=True) + "\n")
