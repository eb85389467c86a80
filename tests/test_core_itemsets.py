"""Unit tests for the FrequentItemsets container."""

import numpy as np
import pytest

from repro.core import (
    FrequentItemsets,
    MiningConfig,
    mine_frequent_itemsets,
)


@pytest.fixture()
def fis(toy_db):
    return mine_frequent_itemsets(toy_db, MiningConfig(min_support=0.4, max_len=3))


class TestLookups:
    def test_count_and_support(self, fis, toy_db):
        bread = toy_db.vocabulary.id_of("bread")
        assert fis.count_of([bread]) == 4

    def test_missing_itemset_raises_with_context(self, fis, toy_db):
        cola = toy_db.vocabulary.id_of("cola")
        eggs = toy_db.vocabulary.id_of("eggs")
        with pytest.raises(KeyError, match="not frequent"):
            fis.count_of([cola, eggs])

    def test_contains(self, fis, toy_db):
        bread = toy_db.vocabulary.id_of("bread")
        assert frozenset({bread}) in fis


class TestViews:
    def test_render(self, fis, toy_db):
        bread = toy_db.vocabulary.id_of("bread")
        milk = toy_db.vocabulary.id_of("milk")
        assert fis.render([bread, milk]) == "{bread, milk}"

    def test_top_filters_by_length(self, fis):
        top = fis.top(3, min_length=2)
        assert len(top) <= 3
        assert all(len(ids) >= 2 for ids, _ in top)
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)


class TestEdgeCases:
    def test_empty(self, toy_db):
        fis = FrequentItemsets({}, toy_db.vocabulary, 0, 0.5)
        assert len(fis) == 0

    def test_negative_transactions_rejected(self, toy_db):
        with pytest.raises(ValueError):
            FrequentItemsets({}, toy_db.vocabulary, -1, 0.5)

    def test_repr(self, fis):
        assert "FrequentItemsets" in repr(fis)


class TestItemsetView:
    """The columnar view rule generation reads, built once per table."""

    def test_columns_match_the_table(self, fis):
        view = fis.view()
        assert len(view) == len(fis)
        for row, (itemset, count) in enumerate(fis.counts.items()):
            ids = view.ids[view.indptr[row]:view.indptr[row + 1]]
            assert ids.tolist() == sorted(itemset)
            assert view.lengths[row] == len(itemset)
            assert view.counts[row] == count
            found, ok = view.find(view.padded[[row], : len(itemset)])
            assert ok.all() and found.tolist() == [row]

    def test_strings_and_ranks_are_the_object_tie_break(self, fis):
        # the tie-break of chosen rows only: repeats, any order, a subset
        view = fis.view()
        texts = [str(sorted(fis.vocabulary.items_of(s))) for s in fis.counts]
        rows = np.random.default_rng(3).integers(0, len(view) - 2, size=40)
        strings, ranks = view.tie_break(rows)
        expected = [texts[r] for r in rows.tolist()]
        assert strings.tolist() == expected
        assert len(set(rows.tolist())) < len(rows)  # ties are exercised
        for a, b in zip(range(len(rows)), np.roll(np.arange(len(rows)), 7)):
            assert (ranks[a] < ranks[b]) == (expected[a] < expected[b])
            assert (ranks[a] == ranks[b]) == (expected[a] == expected[b])
        assert sorted(set(ranks.tolist())) == list(range(len(set(expected))))
        empty_strings, empty_ranks = view.tie_break(np.zeros(0, dtype=np.int64))
        assert len(empty_strings) == len(empty_ranks) == 0

    def test_built_once_and_reused(self, fis):
        assert fis.view() is fis.view()

    def test_empty_table(self, toy_db):
        view = FrequentItemsets({}, toy_db.vocabulary, 5, 0.5).view()
        assert len(view) == 0
        rows, found = view.find(np.zeros((2, 0), dtype=np.uint64))
        assert not found.any()
