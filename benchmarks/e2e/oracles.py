"""Answer oracles: slow, obviously-correct recomputations of what the
program reports, written from the paper's definitions rather than from
the program's kernels.

* Mining: a rule's support is the share of transactions containing
  antecedent ∪ consequent, its confidence that count over the count of
  transactions containing the antecedent (set inclusion, Sec. III-B).
* Serving: a rule fires on a job when the job's items include the whole
  antecedent; ``consequent_observed`` says whether they also include the
  whole consequent.  Fired rules are reported in rule-id order.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from repro.core.items import Item

#: largest allowed |book value - recomputed value| for support/confidence
TOLERANCE = 1e-12


def book_fingerprint(path: Path) -> str:
    """Content hash of a saved RuleBook: its items and rule records.

    The header's ``backend`` field names the engine plan that produced
    the book, not its content, so it is left out — a book assembled
    layer by layer must hash like one the workflow produced.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        header.pop("backend", None)
        digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
        for line in fh:
            digest.update(line)
    return digest.hexdigest()


def check_mined_book(
    book, database, config, rng: random.Random, n_sample: int = 50
) -> tuple[int, list[str]]:
    """Recompute sampled rules of *book* over *database* by set inclusion.

    Returns ``(n_checked, problems)`` with one problem per failed check:
    one check that every kept rule clears the support and lift floors,
    and one per sampled rule whose support and confidence, recounted from
    the transactions themselves, differ from the book's.
    """
    table = book.table
    problems: list[str] = []
    low = np.flatnonzero(
        (table.support < config.min_support) | (table.lift < config.min_lift)
    )
    if len(low):
        i = int(low[0])
        problems.append(
            f"{len(low)} rules below the floors, e.g. rule {i}: "
            f"support={float(table.support[i])!r} lift={float(table.lift[i])!r}"
        )

    n = len(database)
    rows = np.repeat(np.arange(n), np.diff(database.indptr))
    columns: dict[int, np.ndarray] = {}

    def contains(items) -> np.ndarray:
        """Boolean mask of the transactions that include every item."""
        mask = np.ones(n, dtype=bool)
        for item in items:
            item_id = database.vocabulary.get_id(item)
            if item_id is None:
                return np.zeros(n, dtype=bool)
            if item_id not in columns:
                column = np.zeros(n, dtype=bool)
                column[rows[database.indices == item_id]] = True
                columns[item_id] = column
            mask &= columns[item_id]
        return mask

    vocab = table.vocabulary
    sample = rng.sample(range(len(table)), min(n_sample, len(table)))
    for i in sample:
        antecedent = [vocab.item_of(int(x)) for x in table.ant_row(i)]
        consequent = [vocab.item_of(int(x)) for x in table.cons_row(i)]
        n_x = int(contains(antecedent).sum())
        n_xy = int(contains(antecedent + consequent).sum())
        support = n_xy / n
        confidence = n_xy / n_x if n_x else 0.0
        if abs(support - table.support[i]) > TOLERANCE or abs(
            confidence - table.confidence[i]
        ) > TOLERANCE:
            problems.append(
                f"rule {i}: book support/confidence {float(table.support[i])!r}/"
                f"{float(table.confidence[i])!r}, recounted {support!r}/{confidence!r}"
            )
    return len(sample) + 1, problems


class FiredOracle:
    """Brute-force subset test of every rule of one book against a job."""

    def __init__(self, table):
        vocab = table.vocabulary
        self._rules = [
            (
                frozenset(vocab.item_of(int(x)) for x in table.ant_row(i)),
                frozenset(vocab.item_of(int(x)) for x in table.cons_row(i)),
            )
            for i in range(len(table))
        ]

    def fired(self, transaction: list[str]) -> list[tuple[int, bool, list[str]]]:
        """``(rule_id, consequent_observed, antecedent)`` per firing rule."""
        job = {Item.parse(text) for text in transaction}
        return [
            (rule_id, consequent <= job, sorted(i.render() for i in antecedent))
            for rule_id, (antecedent, consequent) in enumerate(self._rules)
            if antecedent <= job
        ]

    def check(self, response: dict, transaction: list[str]) -> str | None:
        """Compare one parsed ``match_result``; describe any mismatch."""
        got = [
            (f["rule_id"], f["consequent_observed"], f["antecedent"])
            for f in response["fired"]
        ]
        want = self.fired(transaction)
        if got == want:
            return None
        got_ids = {g[0] for g in got}
        want_ids = {w[0] for w in want}
        return (
            f"request {response.get('id')} (version {response.get('version')}): "
            f"{len(got)} fired, oracle {len(want)}; missing "
            f"{sorted(want_ids - got_ids)[:5]}, extra {sorted(got_ids - want_ids)[:5]}"
            + ("" if got_ids != want_ids else "; consequent flags or antecedents differ")
        )
