"""Sec. III of the paper, stated literally: the answers every kernel must give.

Each function is the slow, obviously-correct statement of one rule of
the method, written from the paper's text rather than from an earlier
optimisation: support by set inclusion (III-C), rules by powerset split
(III-B), Conditions 1–4 pairwise (III-D), and quartile binning with the
zero and Std bins, one-hot encoding and the 80 % skew filter row by row
(III-E).  A sliding window is the last *n* transactions.  :func:`rows_of`,
:func:`rule_keys` and :func:`save_with_json_dumps` turn production rule
tables and rulebooks into plain values to compare; :func:`table_of`
turns hand-built rule objects into the table every layer takes.
:func:`without_subset` builds the table that is not downward-closed
every layer must refuse.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import asdict
from itertools import combinations

import numpy as np

from repro.core.items import Item, ItemVocabulary, render_itemset
from repro.core.itemsets import FrequentItemsets
from repro.core.ruletable import METRIC_COLUMNS, RuleTable
from repro.core.transactions import TransactionDatabase
from repro.dataframe import BooleanColumn, CategoricalColumn, NumericColumn
from repro.preprocess.aggregation import apply_semantic_grouping, compute_activity_tiers
from repro.preprocess.binning import Discretizer

# -- support (Sec. III-C) -----------------------------------------------------------


def support_counts(transactions, min_support, max_len=None):
    """Every subset of every transaction, counted by set inclusion."""
    counts: Counter = Counter()
    for txn in transactions:
        items = sorted(set(txn))
        for k in range(1, min(len(items), max_len or len(items)) + 1):
            counts.update(frozenset(c) for c in combinations(items, k))
    n = len(transactions)
    return {s: c for s, c in counts.items() if c / n >= min_support}


def check_itemset_table(db: TransactionDatabase, counts, min_support, max_len):
    """Assert *counts* is exactly the frequent-itemset table of *db*.

    Every reported count must be the number of rows holding every member
    of a frequent itemset of at most *max_len* items.  Every absent
    one-item extension of a reported itemset (or of the empty itemset)
    must be infrequent; by downward closure no frequent itemset is then
    missing.  Identical rows are weighted, not repeated.
    """
    n = len(db)
    rows = Counter(tuple(t.tolist()) for t in db.iter_id_transactions())
    holds = np.zeros((len(rows), db.n_items), dtype=bool)  # row r holds item i
    for r, row in enumerate(rows):
        holds[r, list(row)] = True
    weight = np.fromiter(rows.values(), np.int64, len(rows))
    for itemset in [frozenset(), *counts]:
        covering = holds[:, sorted(itemset)].all(axis=1)
        if itemset:
            assert counts[itemset] == weight[covering].sum(), sorted(itemset)
            assert counts[itemset] / n >= min_support
            assert max_len is None or len(itemset) <= max_len
        if len(itemset) == max_len:
            continue
        extension = weight[covering] @ holds[covering]  # support of itemset + {i}
        for item in np.flatnonzero(extension / n >= min_support).tolist():
            if item not in itemset:
                assert itemset | {item} in counts, sorted(itemset | {item})


# -- rules (Sec. III-B) -------------------------------------------------------------


def rules_by_split(counts, n, vocabulary, min_lift=1.5, min_confidence=0.0,
                   keyword_ids=None):
    """``(antecedent, consequent, support, confidence, lift, leverage,
    conviction)`` of every surviving split, in canonical order."""
    keywords = None if keyword_ids is None else set(keyword_ids)
    rules, n_missing, first = [], 0, None
    for itemset, count in counts.items():
        if len(itemset) < 2 or (keywords is not None and not itemset & keywords):
            continue
        members = sorted(itemset)
        for size in range(1, len(members)):
            for ant in combinations(members, size):
                cons = tuple(sorted(itemset - set(ant)))
                if frozenset(ant) not in counts or frozenset(cons) not in counts:
                    n_missing += 1
                    first = first or itemset
                    continue
                supp = count / n
                supp_a = counts[frozenset(ant)] / n
                supp_c = counts[frozenset(cons)] / n
                conf = supp / supp_a
                lift = supp / (supp_a * supp_c)
                if lift >= min_lift and conf >= min_confidence:
                    conviction = math.inf if conf >= 1.0 else (1.0 - supp_c) / (1.0 - conf)
                    rules.append((ant, cons, supp, conf, lift,
                                  supp - supp_a * supp_c, conviction))
    if n_missing:
        raise ValueError(
            "itemset table is not downward-closed: "
            f"{n_missing} antecedent/consequent split(s) miss a subset's "
            f"support, first in itemset {render_itemset(vocabulary.items_of(first))}"
        )

    def side(ids):
        return str(sorted(vocabulary.item_of(i) for i in ids))

    return sorted(rules, key=lambda r: (-r[4], -r[3], -r[2], side(r[0]), side(r[1])))


def without_subset(itemsets: FrequentItemsets, items) -> FrequentItemsets:
    """*itemsets* less the itemset of *items*, a proper subset of one it
    keeps: a table that is not downward-closed, as a hand-built or
    filtered table can be."""
    dropped = frozenset(itemsets.vocabulary.id_of(item) for item in items)
    assert dropped in itemsets.counts, "the subset is not in the table"
    assert any(dropped < kept for kept in itemsets.counts), "nothing keeps a superset"
    return FrequentItemsets(
        {s: c for s, c in itemsets.counts.items() if s != dropped},
        itemsets.vocabulary, itemsets.n_transactions,
        itemsets.min_support, itemsets.max_len,
    )


# -- Conditions 1-4 (Sec. III-D) ----------------------------------------------------


def condition_codes(rules, keyword, c_lift=1.5, c_supp=1.5):
    """Per rule, the condition (1-4) that prunes it, or 0 if it is kept.

    *rules* are tuples whose first five fields follow :func:`rules_by_split`;
    *keyword* is an item id.  "a is similar to or higher than b" is
    ``c·a >= b``.  A rule marked by both groupings keeps its C1/C4 code.
    """
    codes = [0] * len(rules)
    sides = [(frozenset(rule[0]), frozenset(rule[1])) for rule in rules]

    def mark(i, code):
        codes[i] = codes[i] or code

    def nested_pairs(shared, differing):
        """(short, long) rules: equal *shared* side, strictly nested other side."""
        groups = defaultdict(list)
        for i, side in enumerate(sides):
            groups[side[shared]].append(i)
        for group in groups.values():
            group.sort(key=lambda i: len(sides[i][differing]))  # a subset is shorter
            for k, s in enumerate(group):
                for l in group[k + 1:]:
                    if sides[s][differing] < sides[l][differing]:
                        yield s, l

    for s, l in nested_pairs(shared=1, differing=0):  # same consequent
        supp_s, lift_s, supp_l, lift_l = rules[s][2], rules[s][4], rules[l][2], rules[l][4]
        if keyword in rules[s][1]:  # Condition 1
            if c_lift * lift_s >= lift_l:
                mark(l, 1)
            elif c_supp * supp_l >= supp_s:
                mark(s, 1)
        elif keyword in rules[s][0] and keyword in rules[l][0]:  # Condition 4
            if c_lift * lift_s >= lift_l:
                mark(l, 4)
    for s, l in nested_pairs(shared=0, differing=1):  # same antecedent
        supp_s, lift_s, supp_l, lift_l = rules[s][2], rules[s][4], rules[l][2], rules[l][4]
        if keyword in rules[s][0]:  # Condition 2
            if c_lift * lift_l >= lift_s and c_supp * supp_l >= supp_s:
                mark(s, 2)
            elif c_lift * lift_l < lift_s:
                mark(l, 2)
        elif keyword in rules[s][1] and keyword in rules[l][1]:  # Condition 3
            if c_lift * lift_s >= lift_l:
                mark(l, 3)
    return codes


# -- preprocessing (Sec. III-E) -----------------------------------------------------


def bin_label(value, disc: Discretizer):
    """One value's label under a fitted quartile discretiser."""
    spec = disc.spec
    if math.isnan(value):
        return None
    if spec.zero_label is not None and value == 0.0:
        return spec.zero_label
    if disc.std_value is not None and value == disc.std_value:
        return spec.std_label
    fit_min = disc.bin_ranges().get("Bin1", (None,))[0]
    k = 0 if value == fit_min else bisect_right(disc.edges.tolist(), value)
    return f"Bin{k + 1}"


def preprocess_rows(pre, table):
    """``(database, dropped items, tier labels per output column)``.

    Items are interned spec by spec (DESIGN §9): a categorical or label
    feature interns every category of its column in column order, a
    numeric feature the labels present in sorted order, a flag its one
    label.  Tier columns order their categories by first appearance.
    """
    working = table.copy()
    for g in pre.grouping_specs:
        working.add_column(g.column, apply_semantic_grouping(working[g.column], g.mapping))
    tiers = {}
    for t in pre.tier_specs:
        fitted = compute_activity_tiers(
            working, t.column, top_share=t.top_share, bottom_share=t.bottom_share,
            frequent_label=t.frequent_label, moderate_label=t.moderate_label,
            rare_label=t.rare_label,
        )
        tiers[t.output_column] = [fitted.tier_of(v) for v in working[t.column].to_list()]
        working.add_column(t.output_column,
                           CategoricalColumn.from_values(tiers[t.output_column]))

    vocab, cells = ItemVocabulary(), []
    for spec in pre.features:
        column, name = working[spec.column], spec.feature_name
        kind = spec.kind
        if kind == "auto":
            kind = {NumericColumn: "numeric", CategoricalColumn: "categorical",
                    BooleanColumn: "flag"}[type(column)]
        if kind in ("categorical", "label"):
            make = Item.flag if kind == "label" else (lambda v, f=name: Item(f, v))
            for category in column.categories:
                vocab.intern(make(category))
            cells.append([None if v is None else make(v) for v in column.to_list()])
        elif kind == "numeric":
            disc = Discretizer(spec.binning).fit(column.values)
            labels = [bin_label(v, disc) for v in column.values.tolist()]
            for label in sorted({label for label in labels if label is not None}):
                vocab.intern(Item(name, label))
            cells.append([None if label is None else Item(name, label) for label in labels])
        else:
            flag = Item.flag(spec.true_label if spec.true_label is not None else name)
            vocab.intern(flag)
            cells.append([flag if v == 1 else None for v in column.to_list()])
    rows = [{item for item in row if item is not None} for row in zip(*cells)]

    # skew filter: drop items present in *more than* max_share of rows
    # (the vocabulary keeps them, so no id shifts)
    n = len(rows)
    seen = Counter(item for row in rows for item in row)
    dropped = [item for item in vocab if n and seen[item] / n > pre.skew_max_share]
    database = TransactionDatabase.from_itemsets(
        [list(row - set(dropped)) for row in rows], vocab
    )
    return database, dropped, tiers


# -- streaming ----------------------------------------------------------------------


def window_of(transactions, n, vocabulary):
    """The last *n* transactions as a database over *vocabulary*."""
    tail = transactions[max(0, len(transactions) - n):]
    return TransactionDatabase.from_itemsets(tail, vocabulary)


# -- production values as plain values ------------------------------------------------


def rule_keys(table: RuleTable):
    """(antecedent ids, consequent ids) tuple keys, one per row."""
    return [
        (tuple(int(x) for x in table.ant_row(i)),
         tuple(int(x) for x in table.cons_row(i)))
        for i in range(len(table))
    ]


def rows_of(table: RuleTable):
    """Table rows in :func:`rules_by_split`'s tuple form."""
    metrics = zip(*(getattr(table, m).tolist() for m in METRIC_COLUMNS))
    return [(*key, *values) for key, values in zip(rule_keys(table), metrics)]


def table_of(rules, vocabulary: ItemVocabulary | None = None) -> RuleTable:
    """Rule objects as a :class:`RuleTable`, in order, each item keyed by itself.

    Ids are *vocabulary*'s (default: the rules' items sorted, id = rank).
    A rule's own id fields are not read: its item and id sets share no
    order to pair them by.
    """
    rules = list(rules)
    if vocabulary is None:
        vocabulary = ItemVocabulary(sorted({item for rule in rules for item in rule.items}))
    sides = []
    for side in ("antecedent", "consequent"):
        rows = [sorted(map(vocabulary.id_of, getattr(rule, side))) for rule in rules]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        sides += [indptr, [i for row in rows for i in row]]
    return RuleTable(
        vocabulary, *sides,
        *([getattr(rule, name) for rule in rules] for name in METRIC_COLUMNS),
    )


def _enc_float(value: float) -> float | str:
    """Strict-JSON float: non-finite values become strings."""
    if math.isfinite(value):
        return value
    return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")


def save_with_json_dumps(book, path) -> None:
    """Write *book* one ``json.dumps(record, sort_keys=True)`` per line."""
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
        for ant, cons, *metrics in rows_of(table):
            record = {"record": "rule", "antecedent_ids": list(ant),
                      "consequent_ids": list(cons)}
            record.update(zip(METRIC_COLUMNS, map(_enc_float, metrics)))
            fh.write(json.dumps(record, sort_keys=True) + "\n")
