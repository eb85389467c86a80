"""Helpers shared by the benchmark harness (artifact persistence, a
synthetic rule book)."""

from __future__ import annotations

import random
from itertools import chain
from pathlib import Path

OUTPUT_DIR = Path(__file__).parent / "output"
N_ITEMS = 120  # the synthetic books' vocabulary size


def write_artifact(name: str, text: str) -> None:
    """Persist a regenerated table/figure under benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / name).write_text(text, encoding="utf-8")


def rules_with(rules, antecedent_parts=(), consequent_parts=()):
    """Rules whose sides contain all the given item texts."""
    out = []
    for rule in rules:
        ant = {i.render() for i in rule.antecedent}
        cons = {i.render() for i in rule.consequent}
        if set(antecedent_parts) <= ant and set(consequent_parts) <= cons:
            out.append(rule)
    return out


def keyword_table_artifact(result, title, filename, max_cause=6, max_char=3):
    """Format a keyword rule set as a paper-style table and persist it."""
    from repro.analysis import format_rule_table

    table = format_rule_table(result, title, max_cause, max_char)
    text = str(table) + f"\n\n(total kept rules: {len(result)}; {result.report})"
    write_artifact(filename, text)
    print("\n" + text)
    return table


def synthetic_item(k: int):
    """Item *k* of the synthetic books' vocabulary: 24 features × bins."""
    from repro.core.items import Item

    return Item(f"Feature{k % 24}", f"Bin{k // 24}")


def build_rulebook(rng: random.Random, n_rules: int):
    """A mined-shaped book of *n_rules* distinct rules over N_ITEMS
    items, built from table columns with no rule objects."""
    import numpy as np

    from repro.core.items import ItemVocabulary
    from repro.core.ruletable import RuleTable
    from repro.serve import RuleBook

    vocabulary = ItemVocabulary(synthetic_item(k) for k in range(N_ITEMS))
    # (antecedent ids, consequent ids) → metrics in METRIC_COLUMNS order
    rules: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, ...]] = {}
    while len(rules) < n_rules:
        # antecedents of 2-4 items, like mined rules under a max_len
        # bound — single-item antecedents would fire ~half the book on
        # every job, which no real trace rule set does
        size = rng.randint(3, 5)
        ids = rng.sample(range(N_ITEMS), size)
        cut = rng.randint(2, size - 1)
        sides = (tuple(sorted(ids[:cut])), tuple(sorted(ids[cut:])))
        if sides in rules:
            continue
        rules[sides] = (
            rng.uniform(0.05, 0.5),  # support
            rng.uniform(0.3, 1.0),  # confidence
            rng.uniform(1.5, 8.0),  # lift
            rng.uniform(0.0, 0.2),  # leverage
            rng.uniform(1.0, 5.0),  # conviction
        )
    antecedents, consequents = zip(*rules)
    table = RuleTable(
        vocabulary,
        np.cumsum([0, *map(len, antecedents)]), list(chain.from_iterable(antecedents)),
        np.cumsum([0, *map(len, consequents)]), list(chain.from_iterable(consequents)),
        *np.array(list(rules.values())).T,
    )
    return RuleBook(table, trace="synthetic-bench")
