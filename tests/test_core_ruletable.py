"""Tests for the columnar RuleTable pipeline.

The contract under test: the vectorised generation and pruning kernels
give the answers of the Sec. III oracles in :mod:`tests.oracles` —
generation bit-identical in rules, metric doubles and order, pruning
identical in every rule's condition code — on hand-built edge cases and
at trace scale, and the table threads through the engine, persistence
and serving layers without changing any observable result.
"""

from __future__ import annotations

import math
import pickle
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MiningConfig, TransactionDatabase
from repro.core.fpgrowth import fpgrowth
from repro.core.items import Item, ItemVocabulary, as_item
from repro.core.itemsets import FrequentItemsets
from repro.core.mining import mine_keyword_rules
from repro.core.pruning import (
    PruningConfig,
    keyword_condition_codes,
    prune_rule_table,
    prune_rules,
)
from repro.core.rules import AssociationRule, generate_rule_table, generate_rules
from repro.core.ruletable import RuleTable
from repro.engine import MiningEngine
from repro.serve import RuleBook, RuleIndex
from repro.traces import PAI_KEYWORDS, PHILLY_KEYWORDS, SUPERCLOUD_KEYWORDS

from .oracles import condition_codes, rows_of, rule_keys, rules_by_split, without_subset

PAPER = MiningConfig()  # support=0.05, max_len=5, min_lift=1.5


def itemsets_of(db, min_support=0.05, max_len=5) -> FrequentItemsets:
    counts = fpgrowth(db, min_support, max_len)
    return FrequentItemsets(dict(counts), db.vocabulary, len(db), min_support, max_len)


def oracle_rules(its: FrequentItemsets, **kwargs):
    return rules_by_split(its.counts, its.n_transactions, its.vocabulary, **kwargs)


def kernel_codes(table: RuleTable, kw_id: int, config=PruningConfig()) -> list[int]:
    """The production join's code for every row of a keyword table.

    A generated table is joined through its split provenance and again
    as a pickled copy, which has none; both must give the same codes.
    """
    keyword = table.vocabulary.item_of(kw_id)
    stripped = pickle.loads(pickle.dumps(table))
    assert table._splits is not None and stripped._splits is None
    rows, codes = keyword_condition_codes(table, keyword, config)
    assert rows.tolist() == list(range(len(table)))
    rows_s, codes_s = keyword_condition_codes(stripped, keyword, config)
    assert rows_s.tolist() == rows.tolist()
    assert codes_s.tolist() == codes.tolist()
    return codes.tolist()


class TestKernelVsLegacy:
    """Generation against the powerset-split oracle (the class is named
    for the frozen object path it replaced)."""

    def test_toy_database_bit_identical(self, toy_db):
        its = itemsets_of(toy_db, min_support=0.2, max_len=4)
        table = generate_rule_table(its, min_lift=1.0)
        assert len(table) > 0
        assert rows_of(table) == oracle_rules(its, min_lift=1.0)
        # the wrapper is the kernel's materialisation
        assert generate_rules(its, min_lift=1.0) == table.to_rules()

    def test_philly_full_table_bit_identical(self, philly_db):
        its = itemsets_of(philly_db)
        table = generate_rule_table(its, min_lift=PAPER.min_lift)
        assert len(table) > 100
        assert rows_of(table) == oracle_rules(its, min_lift=PAPER.min_lift)

    def test_supercloud_full_table_bit_identical(self, supercloud_db):
        its = itemsets_of(supercloud_db)
        table = generate_rule_table(its, min_lift=PAPER.min_lift)
        assert len(table) > 1000
        assert rows_of(table) == oracle_rules(its, min_lift=PAPER.min_lift)

    def test_pai_full_table_bit_identical(self, pai_db):
        its = itemsets_of(pai_db)
        table = generate_rule_table(its, min_lift=PAPER.min_lift)
        assert len(table) > 100_000
        assert rows_of(table) == oracle_rules(its, min_lift=PAPER.min_lift)

    def test_pai_keyword_restricted_bit_identical(self, pai_db):
        kw_id = pai_db.vocabulary.get_id(as_item("SM Util = 0%"))
        assert kw_id is not None
        its = itemsets_of(pai_db)
        table = generate_rule_table(
            its, min_lift=PAPER.min_lift, keyword_ids=(kw_id,)
        )
        assert len(table) > 100
        assert rows_of(table) == oracle_rules(
            its, min_lift=PAPER.min_lift, keyword_ids=(kw_id,)
        )

    def test_min_confidence_filter_agrees(self, toy_db):
        its = itemsets_of(toy_db, min_support=0.2, max_len=4)
        for min_conf in (0.5, 0.75):
            table = generate_rule_table(its, min_lift=0.0, min_confidence=min_conf)
            assert rows_of(table) == oracle_rules(
                its, min_lift=0.0, min_confidence=min_conf
            )
            assert all(r.confidence >= min_conf for r in table)

    def test_min_confidence_one_keeps_exact_implications_only(self, toy_db):
        # boundary: conf == 1.0 must survive a min_confidence of exactly 1.0
        its = itemsets_of(toy_db, min_support=0.2, max_len=4)
        table = generate_rule_table(its, min_lift=0.0, min_confidence=1.0)
        assert rows_of(table) == oracle_rules(its, min_lift=0.0, min_confidence=1.0)
        assert all(r.confidence == 1.0 for r in table)
        assert all(math.isinf(r.conviction) for r in table)
        assert len(table) > 0  # the toy basket does contain exact implications


class TestPruneEquality:
    """Pruning against the pairwise Conditions 1–4 oracle, code by code."""

    def test_toy_three_paths_agree(self, toy_db):
        its = itemsets_of(toy_db, min_support=0.2, max_len=4)
        table = generate_rule_table(its, min_lift=1.0)
        kw = as_item("beer")
        kw_id = toy_db.vocabulary.id_of(kw)
        kept_t, report_t = prune_rule_table(table, kw)
        kept_o, report_o = prune_rules(table.to_rules(), kw)
        relevant = [row for row in rows_of(table) if kw_id in row[0] + row[1]]
        codes = condition_codes(relevant, kw_id)
        assert kept_t.to_rules() == kept_o
        assert rows_of(kept_t) == [row for row, c in zip(relevant, codes) if not c]
        assert (
            report_t.pruned_by_condition
            == report_o.pruned_by_condition
            == Counter(c for c in codes if c)
        )
        assert report_t.n_input == len(relevant)
        assert report_t.n_kept == codes.count(0)

    @pytest.mark.parametrize(
        "db_fixture, keywords",
        [
            ("philly_db", PHILLY_KEYWORDS),
            ("supercloud_db", SUPERCLOUD_KEYWORDS),
            ("pai_db", PAI_KEYWORDS),
        ],
    )
    def test_trace_pruning_bit_identical(self, request, db_fixture, keywords):
        db = request.getfixturevalue(db_fixture)
        its = itemsets_of(db)
        n_checked = 0
        for kw_text in keywords.values():
            kw = as_item(kw_text)
            kw_id = db.vocabulary.get_id(kw)
            if kw_id is None:
                continue
            table = generate_rule_table(
                its, min_lift=PAPER.min_lift, keyword_ids=(kw_id,)
            )
            rows = rows_of(table)
            codes = condition_codes(rows, kw_id)
            assert kernel_codes(table, kw_id) == codes
            kept_t, report_t = prune_rule_table(table, kw)
            assert rows_of(kept_t) == [row for row, c in zip(rows, codes) if not c]
            assert report_t.pruned_by_condition == Counter(c for c in codes if c)
            n_checked += 1
        assert n_checked >= 2  # the paper keywords must actually exist


class TestEdgeCases:
    def test_empty_itemset_table(self):
        vocab = ItemVocabulary([Item("f", "a"), Item("f", "b")])
        its = FrequentItemsets({}, vocab, 10, 0.05, 5)
        table = generate_rule_table(its)
        assert len(table) == 0
        assert table.to_rules() == []
        assert oracle_rules(its) == []
        # pruning an empty table is a no-op, not an error
        kept, report = prune_rule_table(table, "f = a")
        assert len(kept) == 0 and report.n_input == 0

    def test_single_item_itemsets_yield_no_rules(self):
        vocab = ItemVocabulary([Item("f", "a"), Item("f", "b")])
        its = FrequentItemsets(
            {frozenset({0}): 8, frozenset({1}): 6}, vocab, 10, 0.05, 5
        )
        table = generate_rule_table(its)
        assert len(table) == 0
        assert oracle_rules(its) == []

    def test_absent_keyword_prunes_to_empty(self, toy_db):
        its = itemsets_of(toy_db, min_support=0.2, max_len=4)
        table = generate_rule_table(its, min_lift=1.0)
        kept, report = prune_rule_table(table, "Never = Seen")
        assert len(kept) == 0
        assert report.n_input == 0 and report.n_kept == 0

    def test_incomplete_table_raises(self):
        # a table holding a superset without one of its subsets cannot
        # score every split; generation must refuse it, as the oracle
        # does, naming the itemset and the number of splits that miss a
        # support
        vocab = ItemVocabulary([Item("f", "a"), Item("f", "b")])
        counts = {frozenset({0, 1}): 5, frozenset({0}): 8}  # {1} missing
        its = FrequentItemsets(counts, vocab, 10, 0.05, 5)
        for generate in (generate_rule_table, oracle_rules):
            with pytest.raises(ValueError, match="not downward-closed") as err:
                generate(its, min_lift=0.0)
            assert "2 antecedent/consequent split(s)" in str(err.value)
            assert "f = a" in str(err.value) and "f = b" in str(err.value)

    def test_mined_table_missing_a_subset_raises(self):
        # a mined table that drops {b} but keeps {a, b} is a public
        # input to generate_rule_table that is not downward-closed
        db = TransactionDatabase.from_itemsets([["a", "b"]] * 5 + [["a"]] * 3)
        table = without_subset(itemsets_of(db, min_support=0.1, max_len=2), "b")
        assert len(table.counts) == 2
        with pytest.raises(ValueError, match="not downward-closed"):
            generate_rule_table(table, min_lift=0.0)

    def test_wide_id_space_uses_dict_fallback(self):
        # bits-per-id × max itemset length > 64 forces the dict-probe
        # enumeration; answers must not depend on the lookup strategy
        n_items = 300  # 9 bits per id
        vocab = ItemVocabulary(Item("f", str(i)) for i in range(n_items))
        base = (0, 37, 99, 150, 201, 255, 280, 299)  # length 8 → 72 bits
        counts: dict[frozenset[int], int] = {frozenset(base): 5}
        # every subset present, with supports monotone in size
        for size in range(2, len(base)):
            for subset in combinations(base, size):
                counts[frozenset(subset)] = 5 + (len(base) - size) * 7
        for item in base:
            counts[frozenset({item})] = 60
        its = FrequentItemsets(counts, vocab, 100, 0.01, len(base))
        assert len(counts) == 2 ** len(base) - 1
        table = generate_rule_table(its, min_lift=0.0)
        assert len(table) > 0
        assert rows_of(table) == oracle_rules(its, min_lift=0.0)


class TestRoundTripProperty:
    @staticmethod
    def _random_rules(rng: random.Random, n_rules: int, n_items: int = 12):
        """(vocabulary, rules) with rule ids minted by that vocabulary."""
        vocab = ItemVocabulary(Item(f"F{k % 3}", f"v{k}") for k in range(n_items))
        rules = []
        for _ in range(n_rules):
            size = rng.randint(2, 5)
            ids = rng.sample(range(n_items), size)
            cut = rng.randint(1, size - 1)
            ant, cons = frozenset(ids[:cut]), frozenset(ids[cut:])
            rules.append(
                AssociationRule(
                    antecedent=vocab.items_of(ant),
                    consequent=vocab.items_of(cons),
                    antecedent_ids=ant,
                    consequent_ids=cons,
                    support=rng.random(),
                    confidence=rng.random(),
                    lift=rng.random() * 10,
                    leverage=rng.random() - 0.5,
                    conviction=math.inf if rng.random() < 0.2 else rng.random() * 5,
                )
            )
        return vocab, rules

    @given(seed=st.integers(0, 2**31), n_rules=st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_from_rules_to_rules_round_trip(self, seed, n_rules):
        vocab, rules = self._random_rules(random.Random(seed), n_rules)
        table = RuleTable.from_rules(rules, vocabulary=vocab)
        assert table.to_rules() == rules  # order and every field preserved

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_select_concat_consistency(self, seed):
        rng = random.Random(seed)
        vocab, rules = self._random_rules(rng, 20)
        table = RuleTable.from_rules(rules, vocabulary=vocab)
        cut = rng.randint(0, len(rules))
        left = table.select(np.arange(cut))
        right = table.select(np.arange(cut, len(rules)))
        rejoined = RuleTable.concat([left, right])
        assert rejoined.to_rules() == rules
        # canonical sort is idempotent and a permutation
        once = table.sort_canonical()
        assert sorted(rule_keys(once)) == sorted(rule_keys(table))
        assert once.sort_canonical().to_rules() == once.to_rules()


class TestEngineThreading:
    def test_analyze_populates_rule_table_and_kernel_split(self, supercloud_table):
        from repro.traces import supercloud_preprocessor

        engine = MiningEngine()
        result = engine.analyze(
            supercloud_preprocessor(),
            supercloud_table,
            {"underutil": "SM Util = 0%", "failure": "Failed"},
        )
        table = result.rule_table
        assert isinstance(table, RuleTable)
        union_keys = set()
        for ruleset in result.keyword_results.values():
            assert ruleset.table is not None
            assert len(ruleset.table) == len(ruleset)
            union_keys |= set(rule_keys(ruleset.table))
        # book-keeping: the result table is the dedup union of kept tables
        assert set(rule_keys(table)) == union_keys
        assert len(table) == len(union_keys)

        stats = result.stats
        generate_kernels = {k[0] for k in stats.stage("generate-rules").kernels}
        prune_kernels = {k[0] for k in stats.stage("prune").kernels}
        assert "rules-enumerate" in generate_kernels
        assert "rules-score" in generate_kernels
        assert "prune-join" in prune_kernels
        assert not any(name.startswith("prune-") for name in generate_kernels)
        assert all(name.startswith("prune-") for name in prune_kernels)

    def test_mine_keyword_rules_carries_table(self, toy_db):
        ruleset = mine_keyword_rules(
            toy_db, "beer", MiningConfig(min_support=0.2, max_len=4, min_lift=1.0)
        )
        assert ruleset.table is not None
        assert len(ruleset.table) == len(ruleset)
        assert set(ruleset.table.to_rules()) == set(ruleset.all_rules)


class TestRuleBookColumnar:
    def test_table_and_object_books_are_byte_identical(self, toy_db, tmp_path):
        its = itemsets_of(toy_db, min_support=0.2, max_len=4)
        table = generate_rule_table(its, min_lift=1.0)
        book_from_table = RuleBook(table=table, trace="toy")
        book_from_objects = RuleBook(rules=tuple(table.to_rules()), trace="toy")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        book_from_table.save(a)
        book_from_objects.save(b)
        assert a.read_bytes() == b.read_bytes()
        # and load → save is byte-stable on top
        c = tmp_path / "c.jsonl"
        RuleBook.load(a).save(c)
        assert c.read_bytes() == a.read_bytes()

    def test_book_table_is_dense_and_canonical(self, toy_db):
        its = itemsets_of(toy_db, min_support=0.2, max_len=4)
        book = RuleBook(table=generate_rule_table(its, min_lift=1.0))
        table = book.table
        items = list(book.vocabulary())
        assert items == sorted(items)  # canonical id-space: sorted, dense
        used = set(table.ant_ids.tolist()) | set(table.cons_ids.tolist())
        assert used == set(range(len(items)))
        order = table.canonical_order()
        assert np.array_equal(order, np.arange(len(table)))

    def test_index_from_table_matches_index_from_objects(self, toy_db):
        its = itemsets_of(toy_db, min_support=0.2, max_len=4)
        book = RuleBook(table=generate_rule_table(its, min_lift=1.0))
        via_table = RuleIndex.from_rulebook(book)
        via_objects = RuleIndex(book.rules)
        assert via_table._frags.tolist() == via_objects._frags.tolist()
        transaction = ["bread", "milk", "diapers", "beer"]
        assert [m.rule_id for m in via_table.match(transaction)] == [
            m.rule_id for m in via_objects.match(transaction)
        ]
        assert via_table.match_wire(transaction) == via_objects.match_wire(transaction)
