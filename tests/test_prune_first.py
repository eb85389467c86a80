"""Prune before you sort: the one per-keyword composition.

:func:`~repro.core.mining.keyword_rule_set` runs Conditions 1–4 on the
unsorted split entries of generation's candidates and gathers and sorts
only the survivors.  Its result must be exactly what the two public
calls give — ``generate_rule_table`` (every rule, canonical order) then
``prune_rule_table`` — column for column, with the same tie-break
strings, split entries, report and input count:

* on random transaction databases, for every keyword of the vocabulary,
  one that is in the vocabulary but in no frequent itemset, and one
  that is absent from it;
* as saved books, byte for byte, on all three traces and two seeds;
* on a table that is not downward-closed, with the oracle's error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import InterpretableAnalysis
from repro.analysis.workflow import AnalysisResult
from repro.core import KeywordRuleSet, MiningConfig, TransactionDatabase
from repro.core.fpgrowth import fpgrowth
from repro.core.items import Item, ItemVocabulary, as_item
from repro.core.itemsets import FrequentItemsets
from repro.core.mining import keyword_rule_set
from repro.core.pruning import PruningReport, prune_rule_table
from repro.core.rules import generate_rule_table
from repro.core.ruletable import METRIC_COLUMNS, RuleTable
from repro.engine import MiningEngine
from repro.traces import get_trace

from .oracles import rules_by_split, without_subset

#: i0 … i6 occur in transactions; "idle" is in the vocabulary only
VOCAB = [Item.flag(f"i{i}") for i in range(7)] + [Item.flag("idle")]


def two_call(itemsets: FrequentItemsets, keyword: Item, config: MiningConfig):
    """The public composition: generate every rule, sorted; then prune."""
    kw_id = itemsets.vocabulary.get_id(keyword)
    if kw_id is None:
        return KeywordRuleSet(keyword, (), (), PruningReport(), 0)
    generated = generate_rule_table(
        itemsets,
        min_lift=config.min_lift,
        min_confidence=config.min_confidence,
        keyword_ids=(kw_id,),
    )
    kept, report = prune_rule_table(generated, keyword, config.pruning)
    return KeywordRuleSet(
        keyword, report=report, n_rules_before_pruning=len(generated), table=kept
    )


def assert_same_table(got: RuleTable, expected: RuleTable) -> None:
    for name in ("ant_indptr", "ant_ids", "cons_indptr", "cons_ids"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    for name in METRIC_COLUMNS:
        assert np.array_equal(
            getattr(got, name), getattr(expected, name), equal_nan=True
        ), name
    for got_side, expected_side in zip(got.sort_strings(), expected.sort_strings()):
        assert got_side.tolist() == expected_side.tolist()
    if expected._splits is None:
        assert got._splits is None
    else:
        assert got._splits[0] is expected._splits[0]
        assert np.array_equal(got._splits[1], expected._splits[1])


def assert_same_ruleset(got: KeywordRuleSet, expected: KeywordRuleSet) -> None:
    assert got.report == expected.report
    assert got.n_rules_before_pruning == expected.n_rules_before_pruning
    assert got == expected
    if expected.table is None:
        assert got.table is None
    else:
        assert_same_table(got.table, expected.table)


# -- random databases, every keyword ----------------------------------------------


@given(
    raw=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=6), max_size=40),
    min_support=st.sampled_from([0.05, 0.1, 0.2]),
    max_len=st.sampled_from([2, 3, 5, None]),
    min_lift=st.sampled_from([0.0, 1.0, 1.5]),
    min_confidence=st.sampled_from([0.0, 0.5]),
    margins=st.tuples(st.sampled_from([1.0, 1.2, 1.5, 3.0]), st.sampled_from([1.0, 1.5, 3.0])),
)
@settings(max_examples=120, deadline=None)
def test_composition_equals_generate_then_prune(
    raw, min_support, max_len, min_lift, min_confidence, margins
):
    vocabulary = ItemVocabulary(VOCAB)
    db = TransactionDatabase.from_itemsets(
        [[f"i{i}" for i in t] for t in raw], vocabulary=vocabulary
    )
    config = MiningConfig(
        min_support=min_support, max_len=max_len, min_lift=min_lift,
        min_confidence=min_confidence, c_lift=margins[0], c_supp=margins[1],
    )
    itemsets = MiningEngine().mine(db, config)
    for keyword in [*VOCAB, Item.flag("absent")]:
        assert_same_ruleset(
            keyword_rule_set(itemsets, keyword, config),
            two_call(itemsets, keyword, config),
        )


def test_keyword_in_no_frequent_itemset_and_absent_keyword():
    vocabulary = ItemVocabulary(VOCAB)
    db = TransactionDatabase.from_itemsets(
        [["i0", "i1", "i2"]] * 6 + [["i0", "i3"]] * 4, vocabulary=vocabulary
    )
    config = MiningConfig(min_support=0.2, min_lift=0.0)
    itemsets = MiningEngine().mine(db, config)
    idle = Item.flag("idle")
    assert not any(vocabulary.id_of(idle) in s for s in itemsets)
    unseen = keyword_rule_set(itemsets, idle, config)
    assert unseen.n_rules_before_pruning == 0 and len(unseen.table) == 0
    assert unseen.report == PruningReport()
    assert_same_ruleset(unseen, two_call(itemsets, idle, config))

    absent = keyword_rule_set(itemsets, Item.flag("absent"), config)
    assert absent.table is None and len(absent) == 0
    assert absent == two_call(itemsets, Item.flag("absent"), config)

    kept = keyword_rule_set(itemsets, as_item("i0"), config)
    assert 0 < len(kept) < kept.n_rules_before_pruning


# -- books of the three traces --------------------------------------------------------


def two_call_book_bytes(result: AnalysisResult, keywords: dict, path) -> bytes:
    """The run's book rebuilt from the public two-call composition."""
    rulesets = {
        name: two_call(result.itemsets, as_item(keyword), result.config)
        for name, keyword in keywords.items()
    }
    kept = [r.table for r in rulesets.values() if r.table is not None and len(r.table)]
    assembled = AnalysisResult(
        config=result.config,
        preprocess=result.preprocess,
        itemsets=result.itemsets,
        keyword_results=rulesets,
        stats=result.stats,
        rule_table=RuleTable.concat(kept).dedup() if kept else RuleTable.empty(),
    )
    assembled.to_rulebook(trace="two-call").save(path)
    return path.read_bytes()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trace", ["pai", "supercloud", "philly"])
def test_run_book_equals_the_two_call_book(trace, seed, tmp_path):
    definition = get_trace(trace)
    table = definition.generate_scaled(n_jobs=2000, seed=seed, use_scheduler=False)
    keywords = dict(definition.keywords)
    result = InterpretableAnalysis(
        definition.make_preprocessor(), MiningConfig(), MiningEngine()
    ).run(table, keywords)
    result.to_rulebook(trace="two-call").save(tmp_path / "run.jsonl")
    run_bytes = (tmp_path / "run.jsonl").read_bytes()
    assert run_bytes.count(b"\n") > 1
    assert run_bytes == two_call_book_bytes(result, keywords, tmp_path / "two.jsonl")


# -- tables that are not downward-closed ----------------------------------------------


def test_not_downward_closed_raises_the_oracle_text():
    db = TransactionDatabase.from_itemsets(
        [["a", "b", "c"]] * 5 + [["a", "b"]] * 2 + [["a"]] * 3
    )
    counts = fpgrowth(db, 0.1, 3)
    table = without_subset(FrequentItemsets(counts, db.vocabulary, len(db), 0.1, 3), "c")
    c = db.vocabulary.id_of("c")
    with pytest.raises(ValueError, match="not downward-closed") as oracle:
        rules_by_split(
            table.counts, table.n_transactions, table.vocabulary,
            min_lift=0.0, keyword_ids=(c,),
        )
    with pytest.raises(ValueError, match="not downward-closed") as got:
        keyword_rule_set(table, "c", MiningConfig(min_lift=0.0))
    assert str(got.value) == str(oracle.value)
