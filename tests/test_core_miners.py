"""Unit + property tests for FP-Growth, Apriori and Eclat.

The three algorithms must return *identical* support-count maps on every
database — the paper's Sec. III-C argument for FP-Growth is performance,
never results.  A brute-force reference miner anchors correctness.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransactionDatabase
from repro.core.apriori import apriori, apriori_naive, generate_candidates
from repro.core.eclat import eclat
from repro.core.fpgrowth import fpgrowth

ALGOS = [fpgrowth, apriori, eclat]


def brute_force(db: TransactionDatabase, min_support: float, max_len=None):
    """Reference miner: enumerate every subset of every transaction size."""
    n = len(db)
    if n == 0:
        return {}
    min_count = max(1, int(np.ceil(min_support * n - 1e-9)))
    items = [i for i, c in enumerate(db.item_support_counts()) if c > 0]
    out = {}
    limit = max_len if max_len is not None else len(items)
    txns = [frozenset(t.tolist()) for t in db.iter_id_transactions()]
    for k in range(1, min(limit, len(items)) + 1):
        for combo in combinations(items, k):
            s = frozenset(combo)
            count = sum(1 for t in txns if s <= t)
            if count >= min_count:
                out[s] = count
    return out


@pytest.fixture()
def textbook(toy_db):
    return toy_db


class TestAgainstBruteForce:
    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("min_support", [0.2, 0.4, 0.6, 1.0])
    def test_textbook_database(self, textbook, algo, min_support):
        assert algo(textbook, min_support) == brute_force(textbook, min_support)

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_max_len_respected(self, textbook, algo, max_len):
        result = algo(textbook, 0.2, max_len)
        assert result == brute_force(textbook, 0.2, max_len)
        assert all(len(s) <= max_len for s in result)


class TestEdgeCases:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_empty_database(self, algo):
        db = TransactionDatabase.from_itemsets([])
        assert algo(db, 0.5) == {}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_empty_transactions(self, algo):
        db = TransactionDatabase.from_itemsets([[], []])
        assert algo(db, 0.5) == {}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_single_transaction(self, algo):
        db = TransactionDatabase.from_itemsets([["a", "b"]])
        result = algo(db, 1.0)
        assert len(result) == 3  # {a}, {b}, {a,b}
        assert all(c == 1 for c in result.values())

    @pytest.mark.parametrize("algo", ALGOS)
    def test_min_support_zero_means_count_one(self, algo):
        db = TransactionDatabase.from_itemsets([["a"], ["b"]])
        result = algo(db, 0.0)
        # support-0 itemsets are never emitted; everything with >= 1 is
        assert set(result.values()) == {1}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_invalid_support_rejected(self, algo, textbook):
        with pytest.raises(ValueError):
            algo(textbook, 1.5)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_invalid_max_len_rejected(self, algo, textbook):
        with pytest.raises(ValueError):
            algo(textbook, 0.5, 0)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_identical_transactions(self, algo):
        db = TransactionDatabase.from_itemsets([["x", "y"]] * 7)
        result = algo(db, 1.0)
        assert result == {
            frozenset({0}): 7,
            frozenset({1}): 7,
            frozenset({0, 1}): 7,
        }


class TestAprioriCandidates:
    def test_join_shares_prefix(self):
        cands = generate_candidates([(0, 1), (0, 2), (1, 2)])
        assert (0, 1, 2) in cands

    def test_prune_infrequent_subset(self):
        # (0,1,2) requires (1,2) to be frequent — here it is not
        cands = generate_candidates([(0, 1), (0, 2)])
        assert cands == []

    def test_level_one_join(self):
        assert generate_candidates([(0,), (1,), (2,)]) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_empty_input(self):
        assert generate_candidates([]) == []


class TestNaiveApriori:
    def test_matches_fpgrowth(self, toy_db):
        for min_support in (0.2, 0.4, 0.8):
            assert apriori_naive(toy_db, min_support) == fpgrowth(
                toy_db, min_support
            )

    def test_max_len(self, toy_db):
        result = apriori_naive(toy_db, 0.2, max_len=2)
        assert result == fpgrowth(toy_db, 0.2, 2)

    def test_empty(self):
        assert apriori_naive(TransactionDatabase.from_itemsets([]), 0.5) == {}

    def test_invalid_args(self, toy_db):
        with pytest.raises(ValueError):
            apriori_naive(toy_db, 2.0)
        with pytest.raises(ValueError):
            apriori_naive(toy_db, 0.5, 0)


# -- property-based equivalence -------------------------------------------------

@st.composite
def random_database(draw):
    n_items = draw(st.integers(min_value=1, max_value=8))
    n_txns = draw(st.integers(min_value=0, max_value=30))
    txns = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_items - 1),
                max_size=n_items,
            ),
            min_size=n_txns,
            max_size=n_txns,
        )
    )
    items = [f"i{k}" for k in range(n_items)]
    return TransactionDatabase.from_itemsets(
        [[items[i] for i in t] for t in txns]
    )


@given(
    db=random_database(),
    min_support=st.sampled_from([0.1, 0.25, 0.5, 0.75]),
    max_len=st.sampled_from([None, 1, 2, 3, 4]),
)
@settings(max_examples=120, deadline=None)
def test_three_algorithms_agree(db, min_support, max_len):
    r_fp = fpgrowth(db, min_support, max_len)
    r_ap = apriori(db, min_support, max_len)
    r_ec = eclat(db, min_support, max_len)
    assert r_fp == r_ap == r_ec


@given(db=random_database(), min_support=st.sampled_from([0.2, 0.5]))
@settings(max_examples=60, deadline=None)
def test_fpgrowth_matches_brute_force(db, min_support):
    assert fpgrowth(db, min_support) == brute_force(db, min_support)


@given(db=random_database())
@settings(max_examples=60, deadline=None)
def test_support_antimonotone(db):
    """Every subset of a frequent itemset has >= its support (Apriori property)."""
    result = fpgrowth(db, 0.2)
    for itemset, count in result.items():
        for item in itemset:
            sub = itemset - {item}
            if sub:
                assert result[sub] >= count


@given(db=random_database(), min_support=st.sampled_from([0.1, 0.3, 0.6]))
@settings(max_examples=60, deadline=None)
def test_counts_are_exact(db, min_support):
    """Reported counts equal direct database counts."""
    for itemset, count in fpgrowth(db, min_support).items():
        assert db.support_count(itemset) == count
