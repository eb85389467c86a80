"""Tests for the inverted rule index: equivalence with brute force, hints."""

import random

import repro.serve.index as index_mod
from repro.core.items import Item, ItemVocabulary, as_item
from repro.serve import RuleBook, RuleIndex

from .oracles import table_of
from .serve_oracle import EXOTIC_ITEMS, CountdownOracle, rules_over
from .test_serve_rulebook import random_rules


def brute_force_match(rules, transaction):
    """Reference semantics: subset-check every rule's antecedent."""
    items = {as_item(i) for i in transaction}
    return [rule for rule in rules if rule.antecedent <= items]


def brute_force_near(rules, transaction):
    # one antecedent item missing, the rest present; single-item
    # antecedents are excluded by definition (they either fire or share
    # nothing with the job, so there is no partial evidence to hint from)
    items = {as_item(i) for i in transaction}
    return [
        rule
        for rule in rules
        if len(rule.antecedent) > 1 and len(rule.antecedent - items) == 1
    ]


class TestEquivalence:
    def test_matches_agree_with_brute_force_on_1k_transactions(self):
        # the index must agree with naive subset checking — rules AND order
        rng = random.Random(42)
        book = RuleBook(table_of(random_rules(rng, 300, n_items=50)))
        index = RuleIndex.from_rulebook(book)
        vocabulary = [str(item) for item in book.vocabulary()]

        n_fired = 0
        for _ in range(1000):
            transaction = rng.sample(vocabulary, rng.randint(0, 12))
            expected = brute_force_match(index.rules, transaction)
            got = [m.rule for m in index.match(transaction)]
            assert got == expected
            n_fired += len(got)
        assert n_fired > 0, "test vocabulary never fired a rule — too sparse"

    def test_near_misses_agree_with_brute_force(self):
        rng = random.Random(43)
        book = RuleBook(table_of(random_rules(rng, 200, n_items=40)))
        index = RuleIndex.from_rulebook(book)
        vocabulary = [str(item) for item in book.vocabulary()]

        n_near = 0
        for _ in range(500):
            transaction = rng.sample(vocabulary, rng.randint(0, 10))
            expected = brute_force_near(index.rules, transaction)
            got = index.explain(transaction)
            assert [n.rule for n in got] == expected
            items = {as_item(i) for i in transaction}
            for near in got:
                assert near.missing in near.rule.antecedent
                assert near.missing not in items
            n_near += len(got)
        assert n_near > 0


class TestMatching:
    def test_ranked_by_lift(self):
        book = RuleBook(table_of(random_rules(random.Random(1), 100, n_items=20)))
        index = RuleIndex.from_rulebook(book)
        vocabulary = [str(item) for item in book.vocabulary()]
        matches = index.match(vocabulary)  # a transaction with every item
        assert len(matches) == len(book)
        lifts = [m.rule.lift for m in matches]
        assert lifts == sorted(lifts, reverse=True)

    def test_unknown_items_ignored(self):
        book = RuleBook(table_of(random_rules(random.Random(2), 20)))
        index = RuleIndex.from_rulebook(book)
        assert index.match(["Never = Seen", "Ghost"]) == []
        assert index.explain(["Never = Seen"]) == []

    def test_empty_transaction(self):
        book = RuleBook(table_of(random_rules(random.Random(3), 20)))
        index = RuleIndex.from_rulebook(book)
        assert index.match([]) == []
        assert index.explain([]) == []

    def test_consequent_observed_flag(self):
        rng = random.Random(4)
        book = RuleBook(table_of(random_rules(rng, 50, n_items=15)))
        index = RuleIndex.from_rulebook(book)
        rule = index.rules[0]
        only_ant = [str(i) for i in rule.antecedent]
        with_cons = only_ant + [str(i) for i in rule.consequent]
        fired_ant = {m.rule_id: m for m in index.match(only_ant)}
        fired_full = {m.rule_id: m for m in index.match(with_cons)}
        assert not fired_ant[0].consequent_observed
        assert fired_full[0].consequent_observed

    def test_accepts_item_objects_and_strings(self):
        book = RuleBook(table_of(random_rules(random.Random(5), 20)))
        index = RuleIndex.from_rulebook(book)
        rule = index.rules[0]
        as_strings = [str(i) for i in rule.antecedent]
        as_items = list(rule.antecedent)
        assert [m.rule_id for m in index.match(as_strings)] == [
            m.rule_id for m in index.match(as_items)
        ]

    def test_as_dict_round_trips_the_wire_fragment(self):
        book = RuleBook(table_of(random_rules(random.Random(7), 40, n_items=15)))
        index = RuleIndex.from_rulebook(book)
        oracle = CountdownOracle(index)
        vocabulary = [str(item) for item in book.vocabulary()]
        assert [m.as_dict() for m in index.match(vocabulary)] == (
            oracle.fired_dicts(vocabulary)
        )

    def test_postings_cost_reported(self):
        book = RuleBook(table_of(random_rules(random.Random(6), 30)))
        index = RuleIndex.from_rulebook(book)
        assert index.n_postings == sum(len(r.antecedent) for r in index.rules)
        assert "n_rules=30" in repr(index)

    def test_rule_labels_stable(self):
        book = RuleBook(table_of(random_rules(random.Random(8), 10)))
        index = RuleIndex.from_rulebook(book)
        labels = list(index.iter_rule_labels())
        assert len(labels) == 10
        assert labels[0] == index.rule_label(0)
        assert " => " in labels[0]

    def test_rule_labels_render_each_side_in_item_order(self):
        # the metrics keys, rendered from columns: each side's items in
        # Item order, whatever order the index's vocabulary holds them in
        items = sorted(EXOTIC_ITEMS, reverse=True)
        rules = rules_over(items, seed=3, n_rules=40)
        index = RuleIndex(table=table_of(rules, ItemVocabulary(items)))

        def label(rule):
            ant = ", ".join(i.render() for i in sorted(rule.antecedent))
            cons = ", ".join(i.render() for i in sorted(rule.consequent))
            return f"{{{ant}}} => {{{cons}}}"

        assert index.rule_labels(range(len(index))) == list(map(label, index.rules))
        assert index.rule_labels([7, 2, 7]) == [label(index.rules[r]) for r in (7, 2, 7)]
        assert index.rule_labels([]) == []


def _random_batch(rng, vocabulary, n_jobs):
    """Mixed micro-batch: empty jobs, duplicates, unknown vocabulary."""
    batch = [[], list(vocabulary)]  # empty + every-item extremes
    for _ in range(n_jobs - len(batch)):
        # sample WITH replacement so duplicate items occur naturally
        job = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.3:
            job.append(f"Unknown Feature = {rng.randint(0, 99)}")
        if rng.random() < 0.1:
            job.append("not an item at all ☃")
        rng.shuffle(job)
        batch.append(job)
    rng.shuffle(batch)
    return batch


class TestBatchParity:
    """The packed-bitmask kernel must be indistinguishable from the scalar
    countdown oracle (``tests/serve_oracle.py``)."""

    def _index(self, seed, n_rules=250, n_items=45):
        rng = random.Random(seed)
        book = RuleBook(table_of(random_rules(rng, n_rules, n_items=n_items)))
        return rng, RuleIndex.from_rulebook(book)

    def test_match_wire_batch_is_byte_identical_to_scalar(self):
        rng, index = self._index(100)
        vocabulary = [
            str(item)
            for rule in index.rules
            for item in (*rule.antecedent, *rule.consequent)
        ]
        batch = _random_batch(rng, vocabulary, 200)
        got = index.match_wire_batch(batch)
        oracle = CountdownOracle(index)
        expected = [oracle.match_wire(job) for job in batch]
        assert got == expected  # same ids, same ranking, same wire bytes
        assert any(got), "batch never fired a rule — vocabulary too sparse"

    def test_match_batch_parity_including_consequent_flags(self):
        rng, index = self._index(101)
        vocabulary = [str(item) for item in index.table.vocabulary]
        batch = _random_batch(rng, vocabulary, 150)
        got = index.match_batch(batch)
        oracle = CountdownOracle(index)
        expected = [oracle.match(job) for job in batch]
        assert got == expected
        flags = [m.consequent_observed for row in got for m in row]
        assert True in flags and False in flags

    def test_explain_batch_parity(self):
        rng, index = self._index(102)
        vocabulary = [str(item) for item in index.table.vocabulary]
        batch = _random_batch(rng, vocabulary, 150)
        got = index.explain_batch(batch)
        oracle = CountdownOracle(index)
        expected = [oracle.explain(job) for job in batch]
        assert got == expected
        assert any(got), "batch never produced a near-miss"

    def test_batch_agrees_with_brute_force(self):
        rng, index = self._index(103, n_rules=120, n_items=30)
        vocabulary = [str(item) for item in index.table.vocabulary]
        batch = _random_batch(rng, vocabulary, 120)
        for job, matches, nears in zip(
            batch, index.match_batch(batch), index.explain_batch(batch)
        ):
            assert [m.rule for m in matches] == brute_force_match(
                index.rules, job
            )
            assert [n.rule for n in nears] == brute_force_near(
                index.rules, job
            )
            items = {as_item(i) for i in job}
            for near in nears:
                assert near.missing in near.rule.antecedent
                assert near.missing not in items

    def test_empty_batch_and_empty_book(self):
        _, index = self._index(104)
        assert index.match_wire_batch([]) == []
        assert index.match_batch([]) == []
        assert index.explain_batch([]) == []
        empty = RuleIndex.from_rulebook(RuleBook(table_of([])))
        assert empty.match_wire_batch([["A = 1"], []]) == [[], []]
        assert empty.explain_batch([["A = 1"]]) == [[]]


class _CountingItem:
    """Stand-in for the Item class that counts ``parse`` invocations."""

    def __init__(self):
        self.n_parse = 0

    def parse(self, text):
        self.n_parse += 1
        return Item.parse(text)


class TestCanonCache:
    """The learned-spelling cache must stay bounded AND keep memoising."""

    def _fresh(self, monkeypatch, cache_max):
        monkeypatch.setattr(index_mod, "_CANON_CACHE_MAX", cache_max)
        counter = _CountingItem()
        monkeypatch.setattr(index_mod, "Item", counter)
        book = RuleBook(table_of(random_rules(random.Random(9), 30, n_items=20)))
        return RuleIndex.from_rulebook(book), counter

    def test_cache_size_stays_bounded(self, monkeypatch):
        index, _ = self._fresh(monkeypatch, cache_max=8)
        for i in range(100):
            index.match([f"Churn Feature = {i}"])
            assert index.canon_cache_len <= 8
        assert index.canon_cache_len == 8

    def test_steady_state_still_memoises_at_capacity(self, monkeypatch):
        # regression: the old cache stopped inserting once full, so every
        # post-capacity unseen spelling re-parsed forever
        index, counter = self._fresh(monkeypatch, cache_max=4)
        for i in range(10):  # overflow the cache
            index.match([f"Churn Feature = {i}"])
        assert counter.n_parse == 10
        for _ in range(5):  # newest spellings must be cache hits
            index.match(["Churn Feature = 9", "Churn Feature = 8"])
        assert counter.n_parse == 10, "cache stopped memoising at capacity"

    def test_fifo_eviction_order(self, monkeypatch):
        index, counter = self._fresh(monkeypatch, cache_max=2)
        index.match(["Spelling A"])
        index.match(["Spelling B"])
        index.match(["Spelling C"])  # evicts A (oldest)
        assert counter.n_parse == 3
        index.match(["Spelling C"])  # hit
        index.match(["Spelling B"])  # hit
        assert counter.n_parse == 3
        index.match(["Spelling A"])  # miss — was evicted
        assert counter.n_parse == 4

    def test_matching_unaffected_by_cache_churn(self, monkeypatch):
        # vocabulary spellings live in the static canon map, so unknown
        # spelling churn (fills + evictions) must never change answers
        index, _ = self._fresh(monkeypatch, cache_max=3)
        rule = index.rules[0]
        job = [str(item) for item in rule.antecedent]
        first = [m.rule_id for m in index.match(job)]
        assert 0 in first
        for i in range(10):
            index.match(job + [f"Churn Feature = {i}"])
        assert [m.rule_id for m in index.match(job)] == first
