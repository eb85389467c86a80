"""The mine → book path as arrays: itemset view, rank order, lazy rule
sets, mask dedup and the column-formatted RuleBook writer.

Every array step is checked against a slow, obviously-correct statement
in :mod:`tests.oracles`: powerset splits and pairwise Conditions 1–4 for
rules, a set for dedup, ``str(sorted(...))`` for tie-break strings, and
the per-record ``json.dumps`` writer for book bytes.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ruletable as ruletable_module
from repro.analysis import InterpretableAnalysis
from repro.core import FrequentItemsets, MiningConfig, TransactionDatabase
from repro.core.items import Item, ItemVocabulary, as_item
from repro.core.itemsets import ItemsetView
from repro.core.rules import AssociationRule, generate_rule_table
from repro.core.ruletable import RuleTable, side_strings
from repro.engine import MiningEngine
from repro.serve import RuleBook
from repro.traces import get_trace

from .oracles import (
    condition_codes,
    rows_of,
    rule_keys,
    rules_by_split,
    save_with_json_dumps,
)

PAPER = MiningConfig()


def mine(db, config=PAPER) -> FrequentItemsets:
    return MiningEngine().mine(db, config)


# -- tie-break strings ------------------------------------------------------------


class TestSideStrings:
    def test_equal_to_str_sorted_on_tricky_items(self):
        # repr order differs from Item order: "SM Util" < "SM Util X" as
        # items, but the quote after "SM Util" sorts after the space
        vocab = ItemVocabulary([
            Item("SM Util X", "1"), Item("SM Util", "0%"), Item("a'b", 'q"t'),
            Item("Failed", "Failed"), Item("é", "ü"), Item("SM Util", "0"),
        ])
        rng = random.Random(4)
        rows = [[], [0], [1, 0], [5, 1, 3]] + [
            rng.sample(range(len(vocab)), rng.randint(1, len(vocab)))
            for _ in range(30)
        ]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        ids = np.array([i for r in rows for i in r], dtype=np.int64)
        got = side_strings(indptr, ids, vocab).tolist()
        assert got == [str(sorted(vocab.items_of(r))) for r in rows]


# -- rule generation through the view --------------------------------------------


class TestViewGeneration:
    def test_wide_ids_use_byte_keys_and_equal_legacy(self):
        # ids above 2**13 with 5-item itemsets do not pack into 64 bits
        vocab = ItemVocabulary(Item("pad", str(i)) for i in range(9000))
        rng = random.Random(1)
        hot = [f"x{k}" for k in range(7)]
        db = TransactionDatabase.from_itemsets(
            [rng.sample(hot, rng.randint(2, 6)) for _ in range(300)],
            vocabulary=vocab,
        )
        itemsets = mine(db, MiningConfig(min_support=0.1, max_len=5))
        view = itemsets.view()
        assert view.bits * view.padded.shape[1] > 64
        for keyword in (None, (db.vocabulary.id_of("x0"),)):
            table = generate_rule_table(itemsets, min_lift=1.0, keyword_ids=keyword)
            assert len(table) > 0
            assert rows_of(table) == rules_by_split(
                itemsets.counts, len(db), db.vocabulary,
                min_lift=1.0, keyword_ids=keyword,
            )

    def test_view_built_once_across_keywords(self, supercloud_table, monkeypatch):
        built = []
        original = ItemsetView.__init__

        def counting(self, counts, vocabulary):
            built.append(len(counts))
            original(self, counts, vocabulary)

        monkeypatch.setattr(ItemsetView, "__init__", counting)
        definition = get_trace("supercloud")
        engine = MiningEngine()
        result = InterpretableAnalysis(
            definition.make_preprocessor(), PAPER, engine
        ).run(supercloud_table, dict(definition.keywords))
        assert len(definition.keywords) >= 2
        assert all(len(r.table) for r in result.keyword_results.values())
        assert built == [len(result.itemsets)]
        assert result.itemsets.view() is result.itemsets.view()


# -- no rule objects, strings or json.dumps per rule ------------------------------


class TestNoPerRuleWork:
    def test_run_to_saved_book_builds_no_rule_objects(
        self, philly_table, tmp_path, monkeypatch
    ):
        def refuse(*_args, **_kwargs):
            raise AssertionError("per-rule work on the mine → book path")

        dumps_calls = []
        real_dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            dumps_calls.append(args[0].get("record"))
            return real_dumps(*args, **kwargs)

        definition = get_trace("philly")
        engine = MiningEngine()
        workflow = InterpretableAnalysis(definition.make_preprocessor(), PAPER, engine)
        path = tmp_path / "philly.rulebook.jsonl"
        with monkeypatch.context() as patch:
            patch.setattr(RuleTable, "__getitem__", refuse)
            patch.setattr(AssociationRule, "__post_init__", refuse)
            # tables rebuild tie-break strings only through this name;
            # the itemset view holds its own import
            patch.setattr(ruletable_module, "side_strings", refuse)
            patch.setattr(json, "dumps", counting_dumps)
            result = workflow.run(philly_table, dict(definition.keywords))
            book = result.to_rulebook(trace="philly")
            book.save(path)
            lengths = {name: len(r) for name, r in result.keyword_results.items()}
        assert dumps_calls == ["header"]
        assert len(book) > 0

        for name, ruleset in result.keyword_results.items():
            kept = ruleset.table.to_rules()
            kw = ruleset.keyword
            assert ruleset.cause == tuple(r for r in kept if kw in r.consequent)
            assert ruleset.characteristic == tuple(
                r for r in kept if kw in r.antecedent
            )
            assert len(ruleset) == lengths[name] == len(kept)
            assert ruleset.all_rules == ruleset.cause + ruleset.characteristic
        assert "cause +" in result.summary()

    def test_lazy_and_eager_rulesets_compare_equal(self, toy_db):
        from repro.core import KeywordRuleSet, mine_keyword_rules

        config = MiningConfig(min_support=0.2, max_len=4, min_lift=1.0)
        lazy = mine_keyword_rules(toy_db, "beer", config)
        kept = lazy.table.to_rules()
        beer = as_item("beer")
        eager = KeywordRuleSet(
            beer,
            tuple(r for r in kept if beer in r.consequent),
            tuple(r for r in kept if beer in r.antecedent),
            lazy.report,
            lazy.n_rules_before_pruning,
        )
        assert len(lazy) == len(eager) == len(kept) > 0
        assert lazy == eager
        assert KeywordRuleSet(beer, (), ()) != eager
        empty = KeywordRuleSet(beer)
        assert (empty.cause, empty.characteristic, len(empty)) == ((), (), 0)


# -- dedup ------------------------------------------------------------------------


def _random_table(rng: random.Random, n_rules: int, n_items: int) -> RuleTable:
    vocab = ItemVocabulary(Item("F", str(i)) for i in range(n_items))
    rules = []
    for _ in range(n_rules):
        ids = rng.sample(range(n_items), rng.randint(2, min(5, n_items)))
        cut = rng.randint(1, len(ids) - 1)
        ant, cons = frozenset(ids[:cut]), frozenset(ids[cut:])
        rules.append(AssociationRule(
            antecedent=vocab.items_of(ant), consequent=vocab.items_of(cons),
            antecedent_ids=ant, consequent_ids=cons,
            support=rng.random(), confidence=rng.random(), lift=rng.random(),
            leverage=0.0, conviction=1.0,
        ))
    return RuleTable.from_rules(rules, vocabulary=vocab)


@given(
    seed=st.integers(0, 2**31),
    sizes=st.lists(st.integers(0, 25), min_size=1, max_size=4),
    n_items=st.sampled_from([3, 6, 70, 140]),
)
@settings(max_examples=60, deadline=None)
def test_dedup_keeps_first_occurrences(seed, sizes, n_items):
    rng = random.Random(seed)
    parts = [_random_table(rng, n, n_items) for n in sizes]
    # re-append random rows of earlier parts: duplicates made by concat
    pooled = RuleTable.concat(parts)
    if len(pooled):
        parts.append(pooled.select(np.array(
            [rng.randrange(len(pooled)) for _ in range(rng.randint(1, 10))]
        )))
    table = RuleTable.concat(parts)

    seen, first = set(), []
    for i, key in enumerate(rule_keys(table)):
        if key not in seen:
            seen.add(key)
            first.append(i)
    deduped = table.dedup()
    assert rule_keys(deduped) == [rule_keys(table)[i] for i in first]
    assert deduped.support.tolist() == table.support[first].tolist()


# -- RuleBook bytes ---------------------------------------------------------------


def _oracle_book(trace: str, itemsets, database) -> RuleBook:
    """Oracle book: powerset splits → pairwise Conditions 1–4 → pooled rules."""
    definition = get_trace(trace)
    vocab = database.vocabulary
    rules, seen = [], set()
    for keyword in definition.keywords.values():
        kw_id = vocab.get_id(as_item(keyword))
        if kw_id is None:
            continue
        generated = rules_by_split(
            itemsets.counts, len(database), vocab,
            min_lift=PAPER.min_lift, keyword_ids=(kw_id,),
        )
        codes = condition_codes(
            generated, kw_id, PAPER.pruning.c_lift, PAPER.pruning.c_supp
        )
        for (ant, cons, supp, conf, lift, lev, conv), code in zip(generated, codes):
            if not code and (ant, cons) not in seen:
                seen.add((ant, cons))
                rules.append(AssociationRule(
                    antecedent=vocab.items_of(ant), consequent=vocab.items_of(cons),
                    antecedent_ids=frozenset(ant), consequent_ids=frozenset(cons),
                    support=supp, confidence=conf, lift=lift,
                    leverage=lev, conviction=conv,
                ))
    return RuleBook(
        rules=tuple(rules),
        trace=trace,
        keywords={name: as_item(kw).render() for name, kw in definition.keywords.items()},
        config=PAPER,
        fingerprint=database.fingerprint(),
        backend="serial",
        n_transactions=len(database),
    )


@pytest.mark.parametrize("trace", ["pai", "supercloud", "philly"])
def test_book_bytes_equal_the_object_path(trace, tmp_path):
    definition = get_trace(trace)
    table = definition.generate_scaled(n_jobs=5000, seed=11, use_scheduler=False)
    result = InterpretableAnalysis(
        definition.make_preprocessor(), PAPER, MiningEngine()
    ).run(table, dict(definition.keywords))
    fast = tmp_path / "fast.jsonl"
    result.to_rulebook(trace=trace).save(fast)

    database = result.preprocess.database
    slow = tmp_path / "slow.jsonl"
    save_with_json_dumps(_oracle_book(trace, result.itemsets, database), slow)
    assert fast.read_bytes().count(b"\n") > 20
    assert fast.read_bytes() == slow.read_bytes()


def test_writer_matches_json_dumps_on_extreme_floats(tmp_path):
    vocab = ItemVocabulary(Item("F", str(i)) for i in range(6))
    values = [
        (0.05, 1.0, 1.5, -0.0125, math.inf),
        (1e-05, 0.1, 1e16, -1e-300, -math.inf),
        (1e16, 0.3333333333333333, 2.5e-08, 5e-324, math.nan),
        (0.1 + 0.2, 1 / 3, 123456789.0, -0.0, 1.7976931348623157e308),
    ]
    rules = []
    for k, (supp, conf, lift, lev, conv) in enumerate(values):
        ant, cons = frozenset({k}), frozenset({k + 1, 5})
        rules.append(AssociationRule(
            antecedent=vocab.items_of(ant), consequent=vocab.items_of(cons),
            antecedent_ids=ant, consequent_ids=cons,
            support=supp, confidence=conf, lift=lift, leverage=lev, conviction=conv,
        ))
    book = RuleBook(rules=rules, trace="hand", keywords={"k": "F = 5"})
    fast, slow = tmp_path / "fast.jsonl", tmp_path / "slow.jsonl"
    book.save(fast)
    save_with_json_dumps(book, slow)
    assert fast.read_bytes() == slow.read_bytes()
    text = fast.read_text()
    for literal in ('"inf"', '"-inf"', '"nan"', "1e-05", "1e+16", "-0.0"):
        assert literal in text
    for line in text.splitlines()[1:]:
        assert json.dumps(json.loads(line), sort_keys=True) == line
