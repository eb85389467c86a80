"""The itemset lattice shared by rule generation and Conditions 1–4.

* The split table of :class:`~repro.core.itemsets.ItemsetView`: every
  row's entries are exactly its proper nonempty subsets in pattern order
  (bit ``k`` of ``P`` selects the ``k``-th id), an absent subset is
  ``-1``, and the complement of ``P`` is the entry of ``full ^ P``.
* Tables that are not downward-closed keep failing with the oracle's
  ``ValueError`` text.
* Split provenance: a generated table carries its lattice entries
  through ``select``/``sort_canonical``/``dedup``; ``concat``,
  ``remap_ids`` and pickling drop them; pruning gives the same codes
  either way, and the engine's prune stage never maps rules to entries.
* ``MiningConfig`` refuses ``C_lift``/``C_supp`` below 1 before mining.
"""

from __future__ import annotations

import pickle
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import InterpretableAnalysis
from repro.cli import main
from repro.core import MiningConfig, TransactionDatabase
from repro.core.fpgrowth import fpgrowth
from repro.core.items import Item, ItemVocabulary, as_item
from repro.core.itemsets import FrequentItemsets, ItemsetView
from repro.core.pruning import keyword_condition_codes, prune_rule_table
from repro.core.rules import AssociationRule, generate_rule_table
from repro.core.ruletable import RuleTable
from repro.engine import MiningEngine
from repro.traces import get_trace

from .oracles import rules_by_split, table_of, without_subset


def _vocab(n_items: int) -> ItemVocabulary:
    return ItemVocabulary(Item.flag(f"i{i}") for i in range(n_items))


def _split_of(itemset: list[int], pattern: int) -> frozenset[int]:
    return frozenset(i for k, i in enumerate(itemset) if (pattern >> k) & 1)


# -- the split table ------------------------------------------------------------


@st.composite
def itemset_tables(draw):
    """A random downward-closed table, and maybe an incomplete copy.

    Ids come from a pool of narrow (< 8) or wide (> 4000) ids; the wide
    ones make 5-item keys overflow 64 bits, so the view compares raw
    bytes.  The incomplete copy misses up to three itemsets.
    """
    wide = draw(st.booleans())
    pool = draw(st.lists(
        st.integers(4000, 9000) if wide else st.integers(0, 7),
        min_size=2, max_size=7, unique=True,
    ))
    tops = draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True),
        min_size=1, max_size=6,
    ))
    closed: dict[frozenset[int], int] = {}
    for top in tops:
        for k in range(1, len(top) + 1):
            for subset in combinations(top, k):
                closed.setdefault(frozenset(subset), draw(st.integers(1, 50)))
    keys = list(closed)
    draw(st.randoms()).shuffle(keys)  # row order must not matter
    table = {key: closed[key] for key in keys}
    dropped = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    holed = {key: count for key, count in table.items() if key not in dropped}
    return max(pool) + 1, table, holed


def assert_split_table(counts: dict[frozenset[int], int], n_items: int) -> None:
    fis = FrequentItemsets(counts, _vocab(n_items), 100, 0.01)
    view = fis.view()
    row_of = {key: row for row, key in enumerate(counts)}
    assert len(view.sub) == int(view.split_indptr[-1])
    assert view.sub.dtype == np.int32
    for row, key in enumerate(counts):
        ids = sorted(key)
        start, stop = view.split_indptr[row], view.split_indptr[row + 1]
        if len(ids) < 2:
            assert start == stop
            continue
        full = (1 << len(ids)) - 1
        assert stop - start == full - 1
        expected = [row_of.get(_split_of(ids, p), -1) for p in range(1, full)]
        assert view.sub[start:stop].tolist() == expected
        assert (view.owner[start:stop] == row).all()
        for pattern in range(1, full):
            mirrored = start + stop - 1 - (start + pattern - 1)
            assert mirrored == start + (full ^ pattern) - 1
            assert view.sub[mirrored] == row_of.get(_split_of(ids, full ^ pattern), -1)


@given(itemset_tables())
@settings(max_examples=150, deadline=None)
def test_split_table_holds_every_proper_subset(case):
    n_items, table, holed = case
    assert_split_table(table, n_items)
    assert_split_table(holed, n_items)


def test_wide_ids_fall_back_to_byte_keys():
    counts = {}
    ids = [4097, 5000, 6001, 7002, 8999]
    for k in range(1, 6):
        for subset in combinations(ids, k):
            counts[frozenset(subset)] = 10 - k
    view = FrequentItemsets(counts, _vocab(9000), 20, 0.1).view()
    assert view.bits * view.padded.shape[1] > 64
    assert (view.sub >= 0).all()
    assert_split_table(counts, 9000)


def test_rows_only_view_dedups_and_builds_no_strings():
    indptr = np.array([0, 2, 4, 7], dtype=np.int64)
    ids = np.array([1, 3, 1, 3, 1, 2, 3], dtype=np.int64)
    view, row_of = ItemsetView.of_rows(indptr, ids)
    assert len(view) == 2 and view.counts is None
    assert row_of[0] == row_of[1] != row_of[2]
    assert view.ids[view.indptr[row_of[2]]:view.indptr[row_of[2] + 1]].tolist() == [1, 2, 3]
    # {1, 3} is pattern 0b101 of {1, 2, 3}
    assert view.sub[view.split_indptr[row_of[2]] + 0b101 - 1] == row_of[0]
    # no vocabulary: the view cannot render tie-break strings
    assert view.vocabulary is None


# -- tables that are not downward-closed ------------------------------------------


def _message(generate, itemsets) -> str:
    with pytest.raises(ValueError, match="not downward-closed") as err:
        generate(itemsets, min_lift=0.0)
    return str(err.value)


def _oracle(itemsets, **kwargs):
    return rules_by_split(
        itemsets.counts, itemsets.n_transactions, itemsets.vocabulary, **kwargs
    )


def test_table_missing_a_subset_raises_the_oracle_text():
    db = TransactionDatabase.from_itemsets(
        [["a", "b", "c"]] * 5 + [["a", "b"]] * 2 + [["a"]] * 3
    )
    counts = fpgrowth(db, 0.1, 3)
    table = without_subset(FrequentItemsets(counts, db.vocabulary, len(db), 0.1, 3), "b")
    assert _message(generate_rule_table, table) == _message(_oracle, table)


def test_trace_table_missing_a_subset_raises_the_oracle_text(pai_db):
    counts = fpgrowth(pai_db, 0.1, 3)
    mined = FrequentItemsets(counts, pai_db.vocabulary, len(pai_db), 0.1, 3)
    widest = max(mined.counts, key=lambda s: (len(s), sorted(s)))
    assert len(widest) == 3
    pair = pai_db.vocabulary.items_of(sorted(widest)[:2])
    table = without_subset(mined, pair)
    assert _message(generate_rule_table, table) == _message(_oracle, table)


# -- split provenance ---------------------------------------------------------------


@pytest.fixture(scope="module")
def failed_table(supercloud_db):
    """SuperCloud's ``Failed`` rules, generated, and the itemsets they came from."""
    counts = fpgrowth(supercloud_db, 0.05, 5)
    its = FrequentItemsets(counts, supercloud_db.vocabulary, len(supercloud_db), 0.05, 5)
    keyword = as_item("Failed")
    kw_id = supercloud_db.vocabulary.id_of(keyword)
    return its, generate_rule_table(its, keyword_ids=(kw_id,)), keyword


def _codes(table, keyword):
    return keyword_condition_codes(table, keyword)[1].tolist()


def _entry_rules(view, entry):
    """Each entry as ``(antecedent, consequent)`` id sets."""
    out = []
    for e in entry.tolist():
        row = int(view.owner[e])
        ids = view.ids[view.indptr[row]:view.indptr[row + 1]].tolist()
        pattern = e - int(view.split_indptr[row]) + 1
        full = (1 << len(ids)) - 1
        out.append((_split_of(ids, pattern), _split_of(ids, full ^ pattern)))
    return out


def _rule_sides(table):
    return [
        (frozenset(table.ant_row(i).tolist()), frozenset(table.cons_row(i).tolist()))
        for i in range(len(table))
    ]


def test_generated_entries_are_the_rules(failed_table):
    its, table, _ = failed_table
    view, entry = table._splits
    assert view is its.view()
    assert len(entry) == len(table) > 100
    assert _entry_rules(view, entry) == _rule_sides(table)


def test_provenance_follows_select_and_sort(failed_table):
    _, table, keyword = failed_table
    codes = _codes(table, keyword)
    rng = random.Random(0)
    rows = rng.sample(range(len(table)), len(table))
    shuffled = table.select(rows)
    assert shuffled._splits is not None
    assert _entry_rules(*shuffled._splits) == _rule_sides(shuffled)
    assert _codes(shuffled, keyword) == [codes[r] for r in rows]
    again = shuffled.sort_canonical()
    assert again._splits is not None
    assert np.array_equal(again._splits[1], table._splits[1])
    assert table.dedup() is table
    kept, _ = prune_rule_table(table, keyword)
    assert kept._splits is not None
    assert _entry_rules(*kept._splits) == _rule_sides(kept)


def test_provenance_dropped_by_concat_remap_and_pickle(failed_table):
    _, table, keyword = failed_table
    codes = _codes(table, keyword)
    half = len(table) // 2
    joined = RuleTable.concat([table.select(range(half)), table.select(range(half, len(table)))])
    identity = np.arange(len(table.vocabulary))
    remapped = table.remap_ids(identity, table.vocabulary)
    pickled = pickle.loads(pickle.dumps(table))
    for other in (joined, remapped, pickled):
        assert other._splits is None
        assert _codes(other, keyword) == codes
    assert table._splits is not None  # pickling the table leaves it alone


def test_generic_entries_refuse_bad_rules():
    vocab = _vocab(4)
    good = AssociationRule(
        frozenset({Item.flag("i0")}), frozenset({Item.flag("i1")}),
        frozenset({0}), frozenset({1}), 0.2, 0.5, 2.0, 0.0, 1.0,
    )
    table = table_of([good], vocab)
    empty_cons = RuleTable(
        vocab, [0, 1], [0], [0, 0], [], [0.2], [0.5], [2.0], [0.0], [1.0]
    )
    with pytest.raises(ValueError, match="non-empty"):
        keyword_condition_codes(empty_cons, Item.flag("i0"))
    overlapping = RuleTable(
        vocab, [0, 2], [0, 1], [0, 1], [1], [0.2], [0.5], [2.0], [0.0], [1.0]
    )
    with pytest.raises(ValueError, match="disjoint"):
        keyword_condition_codes(overlapping, Item.flag("i0"))
    assert _codes(table, Item.flag("i0")) == [0]


@pytest.mark.parametrize("trace", ["pai", "supercloud", "philly"])
def test_engine_prune_stage_never_maps_entries(request, trace):
    table = request.getfixturevalue(f"{trace}_table")
    definition = get_trace(trace)
    result = InterpretableAnalysis(
        definition.make_preprocessor(), MiningConfig(), MiningEngine()
    ).run(table, dict(definition.keywords))
    kernels = {name for name, _, _ in result.stats.stage("prune").kernels}
    assert "prune-join" in kernels
    assert "prune-entries" not in kernels


# -- MiningConfig -------------------------------------------------------------------


@pytest.mark.parametrize("field, text", [("c_lift", "C_lift"), ("c_supp", "C_supp")])
@pytest.mark.parametrize("value", [0.5, 0.999])
def test_mining_config_refuses_constants_below_one(field, text, value):
    with pytest.raises(ValueError, match=f"{text} must be >= 1"):
        MiningConfig(**{field: value})


def test_cli_refuses_c_lift_below_one_before_writing(tmp_path, capsys):
    out = tmp_path / "book.jsonl"
    code = main([
        "mine-rulebook", "--trace", "philly", "--n-jobs", "500",
        "--c-lift", "0.5", "--output", str(out),
    ])
    assert code == 2
    assert "C_lift must be >= 1" in capsys.readouterr().err
    assert not out.exists()
